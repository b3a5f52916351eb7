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

from .errors import AlgebraMismatch, InvalidSpec, NotArtinian, NotAUnit, NotLocal, ParseError, quote
from .expr import evaluate, monomial_str, parse_polynomial, polynomial_str
from .linalg import Vector, add_to, printable, printable_power, rational
from .poly import (
    Polynomial,
    degrevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    power,
)

ONE_COORDS = {0: 1}  # the coordinates of 1 in every algebra: basis[0] == 1


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


def _monic(p):
    """(leading monomial, p made monic): the one place a leading term is computed.
    The reduction helpers below take and return such pairs."""
    m, c = p.leading()
    return m, p.scale(Fraction(1, c))


def _spoly(f, g):
    """The S-polynomial of two monic (leading monomial, polynomial) pairs."""
    (mf, f), (mg, g) = f, g
    lcm = mono_lcm(mf, mg)
    a = Polynomial(f.nvars, {mono_div(lcm, mf): 1})
    b = Polynomial(g.nvars, {mono_div(lcm, mg): 1})
    return a * f - b * g


def _reduce_poly(p, leads):
    """Remainder of p under multivariate division (degrevlex) by the monic
    polynomials of `leads`, (leading monomial, polynomial) pairs."""
    work = dict(p.coords)
    rem = {}
    while work:
        mono = max(work, key=degrevlex_key)
        coeff = work.pop(mono)
        for lm, g in leads:
            if mono_divides(lm, mono):
                q = mono_div(mono, lm)
                for gm, gc in g.coords.items():
                    t = mono_mul(gm, q)
                    if t != mono:
                        add_to(work, t, -coeff * gc)
                break
        else:
            rem[mono] = coeff
    return Polynomial(p.nvars, rem)


def _interreduce(leads):
    """Minimal reduced generating set of monic (leading monomial, polynomial)
    pairs, sorted by leading monomial."""
    changed = True
    while changed:
        changed = False
        leads.sort(key=lambda lead: degrevlex_key(lead[0]))
        out = []
        for i, (m, p) in enumerate(leads):
            others = out + leads[i + 1:]
            r = _reduce_poly(p, others) if others else p
            if r == p:
                out.append((m, p))
                continue
            changed = True
            if r:
                out.append(_monic(r))
        leads = out
    return leads


def buchberger(polys):
    """Reduced degrevlex Groebner basis, as monic (leading monomial, polynomial)
    pairs sorted by leading monomial, with deterministic S-pair ordering."""
    basis = _interreduce([_monic(p) for p in polys if p])
    pairs = sorted((sum(mono_lcm(basis[i][0], basis[j][0])), i, j)
                   for i in range(len(basis)) for j in range(i))
    while pairs:
        _, i, j = pairs.pop(0)
        (mi, f), (mj, g) = basis[i], basis[j]
        if mono_lcm(mi, mj) == mono_mul(mi, mj):
            continue  # coprime leading terms: S-polynomial reduces to zero
        if len(f.coords) == 1 and len(g.coords) == 1:
            continue  # two monic monomials: the S-polynomial is zero
        r = _reduce_poly(_spoly(basis[i], basis[j]), basis)
        if r:
            basis.append(_monic(r))
            k, mk = len(basis) - 1, basis[-1][0]
            pairs.extend((sum(mono_lcm(basis[idx][0], mk)), k, idx) for idx in range(k))
            pairs.sort()
    return _interreduce(basis)


class Algebra:
    """A presented Artinian local Q-algebra with computed monomial basis."""

    def __init__(self, spec, basis, leads):
        self.spec = spec
        self.names = spec.variables
        self.nvars = len(self.names)
        # (leading monomial, polynomial) per Groebner element, sorted: reduce_mono's
        # divisors.  Empty for A[s]/s^N, whose reduce_mono is A's, placed in its layer
        self._leads = tuple(leads)
        self.groebner = tuple(g for _, g in self._leads)
        self.basis = tuple(basis)  # ascending degrevlex; basis[0] == 1
        self.dimension = len(self.basis)
        self.base = None           # set by TruncatedExtension
        self.ext_name = None
        self.ext_order = None
        # plain tables, not memo tables: the product loop reads them on every basis
        # pair.  A row of _products is made on first use, an entry is None until filled
        self._mono_nf = {}
        self._products = defaultdict(lambda n=self.dimension: [None] * n)
        self._memo = defaultdict(dict)  # table -> {key: value}, see memo
        # the product view: basis[i] is ring.basis[a] * s^k for (a, k) = _layout[i],
        # and _place[k][a] == i.  A plain algebra is its own ring at s-degree 0.
        # An element is its 0-form: coordinate i is (basis index i, wedge 0).
        self.ring = self
        self._layout = self._scalars = tuple((i, 0) for i in range(self.dimension))
        self._place = (tuple(range(self.dimension)),)

    @property
    def index(self):  # basis monomial -> basis index, made on first use; A[s]/s^N never needs it
        return self.memo("index", None, dict, zip(self.basis, count()))

    def memo(self, table, key, build, *args):
        """build(*args), never None, computed once per (table, key) on this algebra.
        Callers pass the builder and its arguments, not a closure made per call."""
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
            red = _reduce_poly(Polynomial(self.nvars, {mono: 1}),
                               self._leads)
            coords = {self.index[m]: c for m, c in red.coords.items()}
        self._mono_nf[mono] = coords
        return coords

    def element_from_poly(self, p):
        coords = {}
        for mono, c in p.coords.items():
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
        not by how far the expression would expand over Q[vars].  A string
        whose value holds a number longer than the interpreter prints raises
        ParseError; so, before it is built, does a power whose augmentation,
        that of its base raised to the power, would hold one.
        """
        if isinstance(value, AlgebraElement):
            if value.algebra is not self:
                raise AlgebraMismatch("element belongs to a different algebra")
            return value
        if isinstance(value, (int, Fraction, float)):
            q = rational(value)
            return AlgebraElement(self, {0: q} if q else {})
        what = f"a number in {quote(value)}"

        def raise_to(base, k):
            printable_power(base.augmentation(), k, ParseError, what)
            return base ** k

        e = evaluate(value, self.names, self.element, lambda i: self.variable(self.names[i]),
                     raise_to=raise_to)
        for q in e.coords.values():
            printable(q, ParseError, what)
        return e

    @property
    def one(self):
        return self.element(1)

    def variable(self, name):
        return self.element_from_poly(Polynomial.variable(self.nvars, self.names.index(name)))

    def pair_product(self, i, j):
        """basis[i] * basis[j] as (basis index, coefficient) terms: the entry of
        the product table, filled on first use in both orders, as it is symmetric."""
        terms = self._products[i][j]
        if terms is None:
            terms = tuple(self.reduce_mono(mono_mul(self.basis[i], self.basis[j])).items())
            self._products[i][j] = self._products[j][i] = terms
        return terms

    def _mul(self, left, right):
        """Coordinates of left * right, the kernel on two 0-forms; a factor 1 returns the other."""
        if left == ONE_COORDS or right == ONE_COORDS:
            return right if left == ONE_COORDS else left
        return self._product(left, self._scalars, right, self._scalars, (((1, 0),),), 1)

    def _product(self, left, left_layout, right, right_layout, cells, width):
        """The free vector of left * right: the one product loop, of elements,
        the module action and wedges, reading basis products from the ring's
        table.  An operand's coordinates are read through its layout as (basis
        index, wedge index); a wedge pair's cell is (sign, target wedge index),
        or None, and the target has `width` wedges.  A pair whose s-degrees
        reach the truncation is skipped before it multiplies."""
        ring, layout, place, N = self.ring, self._layout, self._place, len(self._place)
        products, free = ring._products, {}
        for i, c1 in left.items():
            mi, wi = left_layout[i]
            a, k = layout[mi]
            signs, row = cells[wi], products[a]
            for j, c2 in right.items():
                mj, wj = right_layout[j]
                b, l = layout[mj]
                cell = signs[wj]
                if cell is None or k + l >= N:
                    continue
                sign, widx = cell
                factor, target, terms = sign * c1 * c2, place[k + l], row[b]
                for ab, bc in ring.pair_product(a, b) if terms is None else terms:
                    add_to(free, target[ab] * width + widx, factor * bc)
        return free

    def monomial_strings(self):
        return [monomial_str(m, self.names) or "1" for m in self.basis]


class AlgebraElement(Vector, space="algebra"):
    """An element by its coordinates, never changed once built.  It hashes by
    value, once: equal elements of one algebra have equal keys, and elements
    of two algebras are never equal, so a memo table may key by elements."""

    __slots__ = ("algebra", "coords", "_key", "_hash")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = coords
        self._key = self._hash = None

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def key(self):
        """Sorted by basis monomial, as term order and saved certificates are.
        Computed once: an element, its coords included, is never changed."""
        if self._key is None:
            self._key = tuple(sorted((self.algebra.basis[i], (c.numerator, c.denominator))
                                     for i, c in self.coords.items()))
        return self._key

    def _check(self, other):
        return self.algebra.element(other)

    def __mul__(self, other):
        other = self._check(other)
        if other.coords == ONE_COORDS or self.coords == ONE_COORDS:  # no work for a factor 1:
            return self if other.coords == ONE_COORDS else other  # elements never change
        return AlgebraElement(self.algebra, self.algebra._mul(self.coords, other.coords))

    __rmul__ = __mul__

    def __pow__(self, k):
        base = self if k >= 0 else invert_unit(self.algebra, self)
        return power(base, abs(k), lambda: self.algebra.one)

    def augmentation(self):
        return self.coords.get(0, 0)  # basis[0] == 1

    def __str__(self):
        A = self.algebra
        terms = {A.basis[i]: c for i, c in self.coords.items()}
        return polynomial_str(Polynomial(A.nvars, terms), A.names)


# -- module operations --------------------------------------------------------


def build_algebra(spec):
    """Construct the Algebra for `spec`; staircase basis under degrevlex.

    Raises NotArtinian when the staircase is infinite and NotLocal when the
    relations generate the unit ideal or some non-constant standard monomial
    fails to be nilpotent.
    """
    nvars = len(spec.variables)
    rels = [parse_polynomial(r, spec.variables) for r in spec.relations]
    for r, p in zip(spec.relations, rels):
        for q in p.coords.values():
            printable(q, ParseError, f"a number in {quote(r)}")
    gb = buchberger(rels)
    leads = [m for m, _ in gb]
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

    alg = Algebra(spec, basis, gb)

    # Only the degree-1 standard monomials, basis[1], basis[2], ..., are tried.
    # A standard monomial that is not nilpotent has a variable factor that is
    # not (a product of commuting nilpotents is nilpotent); that variable
    # divides a standard monomial, so it is standard too, and it comes earlier
    # in ascending degrevlex, its degree being lower.  And x^dimension != 0
    # exactly when x is not nilpotent: multiplication by a nilpotent x is a
    # nilpotent operator on a space of that dimension.  So the first failure
    # named here is the first standard monomial that is not nilpotent.
    for i in range(1, alg.dimension):
        if sum(basis[i]) > 1:
            break
        if alg.basis_element(i) ** alg.dimension:
            raise NotLocal(
                f"standard monomial {monomial_str(basis[i], spec.variables)} is not nilpotent")
    return alg


def invert_unit(algebra, u):
    """Exact inverse: over A[s]/s^N by s-adic division in A, v_0 = u_0^(-1) and
    v_m = -v_0 * sum u_j v_(m-j) over the nonzero layers u_j, 1 <= j <= m;
    elsewhere by a geometric series on the nilpotent part.  Both sum coordinate
    vectors through the one product kernel, A._mul, and make one element."""
    u = algebra.element(u)
    a = u.augmentation()
    if not a:
        raise NotAUnit(f"{u} has augmentation 0")
    if algebra.base is not None:
        A, (u0, *rest) = algebra.base, sigma_layers(u)
        v = [invert_unit(A, u0).coords]
        live = [(j, {i: -q for i, q in A._mul(v[0], c.coords).items()})  # -v_0 u_j
                for j, c in enumerate(rest, 1) if c]
        for m in range(1, algebra.ext_order):
            v.append({})
            for j, w in live:
                if j <= m and v[m - j]:
                    for i, c in A._mul(w, v[m - j]).items():
                        add_to(v[m], i, c)
        return AlgebraElement(algebra, {algebra._place[k][i]: c for k, vk in enumerate(v)
                                        for i, c in vk.items()})
    x = {i: rational(Fraction(c, a)) for i, c in u.coords.items() if i}  # u / a - 1
    acc, term, sign = dict(ONE_COORDS), x, -1
    while term:
        for i, c in term.items():
            add_to(acc, i, sign * c)
        term, sign = algebra._mul(term, x), -sign
    return AlgebraElement(algebra, {i: rational(Fraction(c, a)) for i, c in acc.items()})


def derived_algebra(parent, variables, relations, distinguished=None, build=build_algebra, *args):
    """Q[variables]/(relations) built from `parent` by `build(spec, *args)`, once
    per spec on the parent's memo, so every caller that derives the same
    presentation from the same algebra shares one Algebra and its memos."""
    spec = AlgebraSpec(tuple(variables), tuple(relations), distinguished)
    return parent.memo("derived", spec, build, spec, *args)


class TruncatedExtension(Algebra):
    """B = A[s]/s^N = A (x) Q[s]/s^N, built from A's data in closed form.

    G_A involves no s, so its leading terms are coprime to s^N and
    G_A + {s^N} is already B's reduced Groebner basis; the staircase is the
    product of A's with 1, s, ..., s^(N-1), ordered as a s^k by (deg a + k, -k,
    index of a), degrevlex with s last.  B stores no Groebner basis: its
    reduce_mono is the closed form.  B's ring is A: normal forms and basis
    products are A's, from A's product table, placed at the sum of the
    s-exponents, and zero at or above s^N.
    """

    def __init__(self, spec, base, order):
        layout = tuple((a, -neg_k) for _, neg_k, a in sorted(
            (sum(m) + k, -k, a) for a, m in enumerate(base.basis) for k in range(order)))
        super().__init__(spec, [base.basis[a] + (k,) for a, k in layout], ())
        self.base, self.ring, self.ext_name, self.ext_order = base, base, spec.distinguished, order
        place = [[None] * base.dimension for _ in range(order)]
        for i, (a, k) in enumerate(layout):
            place[k][a] = i
        self._layout, self._place = layout, tuple(map(tuple, place))

    def reduce_mono(self, mono):
        k = mono[-1]
        if k >= self.ext_order:
            return {}
        place = self._place[k]
        return {place[a]: c for a, c in self.base.reduce_mono(mono[:-1]).items()}


def truncated_extension(algebra, name, order):
    """A[name]/name^order in closed form (see TruncatedExtension), once per
    (name, order); A is included coordinate-wise.  A name that A already has
    makes the spec's names repeat, which AlgebraSpec refuses."""
    return derived_algebra(algebra, algebra.names + (name,),
                           algebra.spec.relations + (f"{name}^{order}",), name,
                           TruncatedExtension, algebra, order)


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
    return target.element_from_poly(Polynomial(target.nvars, poly))


def sigma_layers(e):
    """Split an element of a truncated extension into base coefficients per power.

    Returns [c_0, ..., c_{order-1}] with e = sum c_j * sigma^j.
    """
    B = e.algebra
    layers = [dict() for _ in range(B.ext_order)]
    for i, c in e.coords.items():
        a, k = B._layout[i]
        layers[k][a] = c
    return [AlgebraElement(B.base, layer) for layer in layers]


def quotient_mod_variable(algebra, name):
    """The quotient algebra A/(name); relations get name set to zero."""
    i = algebra.names.index(name)
    new_names = algebra.names[:i] + algebra.names[i + 1:]
    rels = []
    for r in algebra.spec.relations:
        p = parse_polynomial(r, algebra.names).eliminate(i)
        if p:
            rels.append(polynomial_str(p, new_names))
    return derived_algebra(algebra, new_names, rels)
