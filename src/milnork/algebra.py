"""Presented Artinian local Q-algebras and exact arithmetic in them.

An Algebra is a quotient Q[x_1,...,x_m]/I with a reduced degrevlex Groebner
basis, a finite staircase monomial basis, and nilpotent augmentation ideal.
Elements are coordinate vectors over the monomial basis, keyed by basis
index as forms and echelon rows are.  Everything is immutable after
construction.  What is derived from an algebra (its Omega^p, derived
algebras, dlog forms, certificate realizers) is built once per algebra by
`Algebra.memo(table, key, build, *args)`, so callers share one immutable result.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from itertools import count, product

from .errors import (
    AlgebraMismatch,
    InvalidSpec,
    NameCollision,
    NotArtinian,
    NotAUnit,
    NotLocal,
)
from .expr import evaluate, monomial_str, parse_polynomial, polynomial_str
from .linalg import add_to, rational
from .poly import (
    Polynomial,
    degrevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    power,
)


class AlgebraSpec(namedtuple("AlgebraSpec", "variables relations distinguished")):
    """Presentation data: ordered variables, relation expressions, optional sigma.
    Equal and hashable by value, as the key of the "derived" memo."""

    __slots__ = ()

    def __new__(cls, variables, relations, distinguished=None):
        names, relations = tuple(variables), tuple(relations)
        if len(set(names)) != len(names):
            raise InvalidSpec("variable names must be unique")
        for n in names:
            if not n:
                raise InvalidSpec("variable names must be nonempty")
        if distinguished is not None:
            if distinguished not in names:
                raise InvalidSpec(f"distinguished variable {distinguished!r} not declared")
            if names[-1] != distinguished:
                raise InvalidSpec("the distinguished variable must be last in the order")
        return super().__new__(cls, names, relations, distinguished)


def _spoly(f, g):
    mf, cf = f.leading()
    mg, cg = g.leading()
    lcm = mono_lcm(mf, mg)
    a = Polynomial(f.nvars, {mono_div(lcm, mf): rational(Fraction(1, cf))}, normalize=False)
    b = Polynomial(g.nvars, {mono_div(lcm, mg): rational(Fraction(1, cg))}, normalize=False)
    return a * f - b * g


def _reduce_poly(p, basis):
    """Remainder of p under multivariate division by `basis` (degrevlex)."""
    work = dict(p.terms)
    rem = {}
    leads = [(g.leading(), g) for g in basis]
    while work:
        mono = max(work, key=degrevlex_key)
        coeff = work.pop(mono)
        for (lm, lc), g in leads:
            if mono_divides(lm, mono):
                q = mono_div(mono, lm)
                factor = rational(Fraction(coeff, lc))
                for gm, gc in g.terms.items():
                    t = mono_mul(gm, q)
                    if t != mono:
                        add_to(work, t, -factor * gc)
                break
        else:
            rem[mono] = coeff
    return Polynomial(p.nvars, rem, normalize=False)


def _interreduce(polys):
    """Minimal reduced generating set, monic, sorted by leading monomial."""
    polys = [p for p in polys if p]
    changed = True
    while changed:
        changed = False
        polys.sort(key=lambda p: degrevlex_key(p.leading()[0]))
        out = []
        for i, p in enumerate(polys):
            others = out + polys[i + 1:]
            r = _reduce_poly(p, others) if others else p
            if r:
                _, c = r.leading()
                out.append(r * Fraction(1, c))
            if r.terms != p.terms:
                changed = True
        polys = out
    return polys


def buchberger(polys):
    """Reduced degrevlex Groebner basis with deterministic S-pair ordering."""
    basis = _interreduce(list(polys))
    pairs = sorted(
        ((sum(mono_lcm(basis[i].leading()[0], basis[j].leading()[0])), i, j)
         for i in range(len(basis)) for j in range(i)),
    )
    while pairs:
        _, i, j = pairs.pop(0)
        mi, _ = basis[i].leading()
        mj, _ = basis[j].leading()
        if mono_lcm(mi, mj) == mono_mul(mi, mj):
            continue  # coprime leading terms: S-polynomial reduces to zero
        r = _reduce_poly(_spoly(basis[i], basis[j]), basis)
        if r:
            _, c = r.leading()
            basis.append(r * Fraction(1, c))
            k = len(basis) - 1
            mk = basis[k].leading()[0]
            for idx in range(k):
                pairs.append((sum(mono_lcm(basis[idx].leading()[0], mk)), k, idx))
            pairs.sort()
    return _interreduce(basis)


class Algebra:
    """A presented Artinian local Q-algebra with computed monomial basis."""

    def __init__(self, spec, groebner, basis):
        self.spec = spec
        self.names = spec.variables
        self.nvars = len(self.names)
        self.groebner = tuple(groebner)
        self.basis = tuple(basis)  # ascending degrevlex; basis[0] == 1
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.dimension = len(self.basis)
        self.base = None           # set by TruncatedExtension
        self.ext_name = None
        self.ext_order = None
        # the structure constants stay plain dicts, not memo tables: the product
        # loop reads them on every basis pair, too often for a closure per call
        self._mono_nf = {}
        self._pair_cache = {}
        self._memo = defaultdict(dict)  # table -> {key: value}, see memo
        # the product view: basis[i] is ring.basis[a] * s^k for (a, k) = _layout[i],
        # and _place[k][a] == i.  A plain algebra is its own ring at s-degree 0.
        # An element is its 0-form: coordinate i is (basis index i, wedge 0).
        self.ring = self
        self._layout = self._scalars = tuple((i, 0) for i in range(self.dimension))
        self._place = (tuple(range(self.dimension)),)

    def memo(self, table, key, build, *args):
        """build(*args), never None, computed once per (table, key) on this algebra.
        Hot callers pass the builder and its arguments: a closure is made per call."""
        entries = self._memo[table]
        got = entries.get(key)
        if got is None:
            entries[key] = got = build(*args)
        return got

    # -- construction helpers -------------------------------------------------

    def reduce_mono(self, mono):
        """Normal-form coordinates, by basis index, of a raw monomial (memoized)."""
        cached = self._mono_nf.get(mono)
        if cached is not None:
            return cached
        if mono in self.index:
            coords = {self.index[mono]: 1}
        else:
            red = _reduce_poly(Polynomial(self.nvars, {mono: 1}, normalize=False),
                               self.groebner)
            coords = {self.index[m]: c for m, c in red.terms.items()}
        self._mono_nf[mono] = coords
        return coords

    def element_from_poly(self, p):
        coords = {}
        for mono, c in p.terms.items():
            for i, bc in self.reduce_mono(mono).items():
                add_to(coords, i, c * bc)
        return AlgebraElement(self, coords)

    def basis_element(self, i):
        """The i-th standard monomial as an element; it is already reduced."""
        return AlgebraElement(self, {i: 1})

    def element(self, value):
        """Coerce an expression string, rational, or element into this algebra.

        Numbers go through `rational`, so a float raises TypeError.

        Strings are evaluated with this algebra's arithmetic, which reduces
        after every operation, so the work is bounded by the dimension and
        not by how far the expression would expand over Q[vars].
        """
        if isinstance(value, AlgebraElement):
            if value.algebra is not self:
                raise AlgebraMismatch("element belongs to a different algebra")
            return value
        if isinstance(value, (int, Fraction, float)):
            q = rational(value)
            return AlgebraElement(self, {0: q} if q else {})
        return evaluate(value, self.names, self.element,
                        lambda i: self.variable(self.names[i]))

    @property
    def one(self):
        return self.element(1)

    @property
    def zero(self):
        return AlgebraElement(self, {})

    def variable(self, name):
        if name not in self.names:
            raise InvalidSpec(f"no variable {name!r} in this algebra")
        return self.element_from_poly(Polynomial.variable(self.nvars, self.names.index(name)))

    def pair_product(self, i, j):
        """Coordinates of basis[i] * basis[j] (memoized, symmetric)."""
        if i > j:
            i, j = j, i
        cached = self._pair_cache.get((i, j))
        if cached is None:
            cached = self.reduce_mono(mono_mul(self.basis[i], self.basis[j]))
            self._pair_cache[(i, j)] = cached
        return cached

    def _product(self, left, left_layout, right, right_layout, cells, width):
        """The free vector of left * right: the one product loop, of elements,
        the module action and wedges.  An operand's coordinates are read through
        its layout as (basis index, wedge index); a wedge pair's cell is (sign,
        target wedge index), or None, and the target has `width` wedges.  A pair
        whose s-degrees reach the truncation is skipped before it multiplies."""
        ring, layout, place, N = self.ring, self._layout, self._place, len(self._place)
        free = {}
        for i, c1 in left.items():
            mi, wi = left_layout[i]
            a, k = layout[mi]
            signs = cells[wi]
            for j, c2 in right.items():
                mj, wj = right_layout[j]
                b, l = layout[mj]
                cell = signs[wj]
                if cell is None or k + l >= N:
                    continue
                sign, widx = cell
                factor, row = sign * c1 * c2, place[k + l]
                for ab, bc in ring.pair_product(a, b).items():
                    add_to(free, row[ab] * width + widx, factor * bc)
        return free

    def monomial_strings(self):
        return [monomial_str(m, self.names) or "1" for m in self.basis]


class AlgebraElement:
    __slots__ = ("algebra", "coords", "_key")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = coords
        self._key = None

    def key(self):
        """Sorted by basis monomial, as term order and saved certificates are.
        Computed once: an element, its coords included, is never changed."""
        if self._key is None:
            self._key = tuple(sorted((self.algebra.basis[i], (c.numerator, c.denominator))
                                     for i, c in self.coords.items()))
        return self._key

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.algebra is other.algebra
                and self.coords == other.coords)

    def __bool__(self):
        return bool(self.coords)

    def _check(self, other):
        if not isinstance(other, AlgebraElement):
            other = self.algebra.element(other)
        elif other.algebra is not self.algebra:
            raise AlgebraMismatch("elements from different algebras")
        return other

    def __add__(self, other):
        other = self._check(other)
        res = dict(self.coords)
        for m, c in other.coords.items():
            add_to(res, m, c)
        return AlgebraElement(self.algebra, res)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.algebra, {m: -c for m, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            q = rational(other)
            if not q:
                return AlgebraElement(self.algebra, {})
            return AlgebraElement(self.algebra,
                                  {m: rational(c * q) for m, c in self.coords.items()})
        other = self._check(other)
        A = self.algebra
        return AlgebraElement(A, A._product(self.coords, A._scalars, other.coords, A._scalars,
                                            (((1, 0),),), 1))  # 0-form ^ 0-form

    __rmul__ = __mul__

    def __pow__(self, k):
        base = self if k >= 0 else invert_unit(self.algebra, self)
        return power(base, abs(k), self.algebra.one)

    def augmentation(self):
        return self.coords.get(0, 0)  # basis[0] == 1

    def __str__(self):
        A = self.algebra
        return polynomial_str(Polynomial(A.nvars, {A.basis[i]: c for i, c in self.coords.items()},
                                         normalize=False), A.names)


# -- module operations --------------------------------------------------------


def build_algebra(spec):
    """Construct the Algebra for `spec`; staircase basis under degrevlex.

    Raises NotArtinian when the staircase is infinite and NotLocal when the
    relations generate the unit ideal or some non-constant standard monomial
    fails to be nilpotent.
    """
    nvars = len(spec.variables)
    rels = [parse_polynomial(r, spec.variables) for r in spec.relations]
    gb = buchberger(rels)
    leads = [g.leading()[0] for g in gb]
    if any(sum(m) == 0 for m in leads):
        raise NotLocal("the relations generate the unit ideal")

    bounds = []
    for i in range(nvars):
        pure = [m[i] for m in leads if sum(m) == m[i]]
        if not pure:
            raise NotArtinian(
                f"no pure power of {spec.variables[i]!r} among leading terms; staircase is infinite")
        bounds.append(min(pure))

    basis = []
    for exps in product(*(range(b) for b in bounds)):
        if not any(mono_divides(lm, exps) for lm in leads):
            basis.append(exps)
    basis.sort(key=degrevlex_key)

    alg = Algebra(spec, gb, basis)

    for i in range(1, alg.dimension):
        if alg.basis_element(i) ** alg.dimension:
            raise NotLocal(
                f"standard monomial {monomial_str(basis[i], spec.variables)} is not nilpotent")
    return alg


def invert_unit(algebra, u):
    """Exact inverse: over A[s]/s^N by s-adic division in A, v_0 = u_0^(-1) and
    v_m = -v_0 * sum u_j v_(m-j) over the nonzero layers u_j, 1 <= j <= m;
    elsewhere by a geometric series on the nilpotent part."""
    u = algebra.element(u)
    a = u.augmentation()
    if not a:
        raise NotAUnit(f"{u} has augmentation 0")
    if algebra.base is not None:
        u0, *rest = sigma_layers(u)
        v = [invert_unit(algebra.base, u0)]
        live = [(j, -(v[0] * c)) for j, c in enumerate(rest, 1) if c]  # -v_0 u_j
        for m in range(1, algebra.ext_order):
            v.append(sum((w * v[m - j] for j, w in live if j <= m and v[m - j]), algebra.base.zero))
        return from_sigma_layers(algebra, dict(enumerate(v)))
    x = u * Fraction(1, a) - 1
    acc = algebra.one
    term = algebra.one
    sign = -1
    while True:
        term = term * x
        if not term:
            break
        acc = acc + term * sign
        sign = -sign
    return acc * Fraction(1, a)


def derived_algebra(parent, variables, relations, distinguished=None, build=build_algebra):
    """Q[variables]/(relations) built from `parent` by `build(spec)`, once
    per spec on the parent's memo, so every caller that derives the same
    presentation from the same algebra shares one Algebra and its memos."""
    spec = AlgebraSpec(tuple(variables), tuple(relations), distinguished)
    return parent.memo("derived", spec, build, spec)


class TruncatedExtension(Algebra):
    """B = A[s]/s^N = A (x) Q[s]/s^N, built from A's data in closed form.

    G_A involves no s, so its leading terms are coprime to s^N and
    G_A + {s^N} is already B's reduced Groebner basis; the staircase is the
    product of A's with 1, s, ..., s^(N-1).  B keeps no product table of its
    own: its ring is A, so normal forms and basis products are A's, placed at
    the sum of the s-exponents, and zero at or above s^N.
    """

    def __init__(self, base, spec, order):
        s_power = Polynomial(base.nvars + 1, {(0,) * base.nvars + (order,): 1},
                             normalize=False)
        lifted = [Polynomial(base.nvars + 1, {m + (0,): c for m, c in g.terms.items()},
                             normalize=False) for g in base.groebner]
        groebner = sorted(lifted + [s_power], key=lambda g: degrevlex_key(g.leading()[0]))
        basis = sorted((a + (k,) for a in base.basis for k in range(order)), key=degrevlex_key)
        super().__init__(spec, groebner, basis)
        self.base, self.ring, self.ext_name, self.ext_order = base, base, spec.distinguished, order
        self._layout = tuple((base.index[m[:-1]], m[-1]) for m in self.basis)
        self._place = tuple(tuple(self.index[m + (k,)] for m in base.basis) for k in range(order))

    def reduce_mono(self, mono):
        k = mono[-1]
        if k >= self.ext_order:
            return {}
        place = self._place[k]
        return {place[a]: c for a, c in self.base.reduce_mono(mono[:-1]).items()}


def truncated_extension(algebra, name, order):
    """A[name]/name^order in closed form (see TruncatedExtension), once per
    (name, order); A is included coordinate-wise."""
    if name in algebra.names:
        raise NameCollision(f"variable {name!r} already present")
    if order < 1:
        raise InvalidSpec("truncation order must be >= 1")
    return derived_algebra(algebra, algebra.names + (name,),
                           algebra.spec.relations + (f"{name}^{order}",), name,
                           lambda spec: TruncatedExtension(algebra, spec, order))


def extension_name(algebra):
    """The first of sigma, eps, s0, s1, ... that is not a variable of A: the
    name of s in A[s]/s^N for the generator families and the certificates.

    s is bound there, so the name changes no verdict; only printed symbols
    and saved certificates show it."""
    for name in ("sigma", "eps"):
        if name not in algebra.names:
            return name
    return next(f"s{i}" for i in count() if f"s{i}" not in algebra.names)


def transport(e, target):
    """Re-express `e` in `target` by matching variable names; a variable the
    target lacks is an error only where `e` uses it."""
    src = e.algebra
    index_map = [target.names.index(n) if n in target.names else None for n in src.names]
    poly = {}
    for idx, c in e.coords.items():
        new = [0] * target.nvars
        for i, exp in enumerate(src.basis[idx]):
            if not exp:
                continue
            j = index_map[i]
            if j is None:
                raise AlgebraMismatch(f"target has no variable {src.names[i]!r}")
            new[j] = exp
        add_to(poly, tuple(new), c)
    return target.element_from_poly(Polynomial(target.nvars, poly, normalize=False))


def sigma_layers(e):
    """Split an element of a truncated extension into base coefficients per power.

    Returns [c_0, ..., c_{order-1}] with e = sum c_j * sigma^j.
    """
    B = e.algebra
    if B.base is None:
        raise AlgebraMismatch("element does not live in a truncated extension")
    layers = [dict() for _ in range(B.ext_order)]
    for i, c in e.coords.items():
        a, k = B._layout[i]
        layers[k][a] = c
    return [AlgebraElement(B.base, layer) for layer in layers]


def from_sigma_layers(B, layers):
    """sum c_k sigma^k in B from {k: c_k}, 0 <= k < N: the inverse of sigma_layers."""
    if any(c.algebra is not B.base for c in layers.values()):
        raise AlgebraMismatch("layer coefficients do not live in the base algebra")
    return AlgebraElement(B, {B._place[k][a]: v for k, c in layers.items()
                              for a, v in c.coords.items()})


def quotient_mod_variable(algebra, name):
    """The quotient algebra A/(name); relations get name set to zero."""
    if name not in algebra.names:
        raise InvalidSpec(f"no variable {name!r}")
    i = algebra.names.index(name)
    new_names = algebra.names[:i] + algebra.names[i + 1:]
    rels = []
    for r in algebra.spec.relations:
        p = parse_polynomial(r, algebra.names).eliminate(i)
        if p:
            rels.append(polynomial_str(p, new_names))
    return derived_algebra(algebra, new_names, rels)
