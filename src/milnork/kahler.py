"""Kahler differential modules of presented Artinian local Q-algebras.

Omega^p of a presented algebra is the free module over the algebra on p-fold
wedges of the variable differentials, modulo the submodule generated by dF
wedged with every (p-1)-wedge for F in the reduced Groebner basis, saturated
by all standard monomials.  Basis extraction is exact sparse row reduction
with the deterministic pivot rule from linalg; the reduced basis consists of
the non-pivot free coordinates, so every form has one canonical coordinate
vector.

Omega^p of B = A[s]/s^N stores no relation row.  Each layer s^k of it is
Omega^p_A plus Omega^(p-1)_A ^ ds, so its basis columns are the layer images
of A's, and a column outside them is reduced by the module of A whose block
it lies in.

Free coordinates are indexed by (basis monomial, wedge index set) pairs,
flattened monomial-major so low monomials survive reduction first.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import combinations

from .algebra import AlgebraElement, derived_algebra, extension_name, invert_unit
from .errors import AlgebraMismatch, NotAUnit, OutOfDomain
from .expr import monomial_str
from .linalg import RowSpace, add_to, rational
from .poly import mono_mul
from .report import field_rows


def _merge_sign(left, right):
    """Sign of sorting the concatenation of two disjoint sorted index tuples."""
    return -1 if sum(1 for r in right for l in left if l > r) & 1 else 1


@cache
def wedge_table(nvars, p, q):
    """(sign, merged wedge index) of the i-th p-wedge ^ the j-th q-wedge, in
    OmegaModule.wedges order, or None when they share a differential."""
    merged = {w: k for k, w in enumerate(combinations(range(nvars), p + q))}
    return tuple(tuple(None if set(a) & set(b)
                       else (_merge_sign(a, b), merged[tuple(sorted(a + b))])
                       for b in combinations(range(nvars), q))
                 for a in combinations(range(nvars), p))


class OmegaModule:
    def __init__(self, algebra, degree):
        self.algebra = algebra
        self.degree = degree
        self.wedges = tuple(combinations(range(algebra.nvars), degree))
        self.wedge_index = {w: i for i, w in enumerate(self.wedges)}
        self.free_dim = algebra.dimension * len(self.wedges)
        # (monomial index, wedge index) of each reduced coordinate
        if algebra.base is None:
            self._space = RowSpace()
            self._build_relations()
            pivots = self._space.pivots
            self.layout = tuple(divmod(c, len(self.wedges))
                                for c in range(self.free_dim) if c not in pivots)
        else:
            self._space = None
            self.layout = self._graded_layout()
        self.basis_cols = tuple(self.col(*cell) for cell in self.layout)
        self.col_index = {c: i for i, c in enumerate(self.basis_cols)}
        self.dimension = len(self.basis_cols)

    def col(self, mono_idx, wedge_idx):
        return mono_idx * len(self.wedges) + wedge_idx

    def _build_relations(self):
        A = self.algebra
        if self.degree == 0 or not self.wedges:
            return
        table = wedge_table(A.nvars, 1, self.degree - 1)
        for g in A.groebner:
            # dF as a vector of polynomial coefficients per variable
            partials = [g.diff(i) for i in range(A.nvars)]
            for cells in zip(*table):  # dx_i ^ one (degree-1)-wedge, for each i
                for mono in A.basis:
                    row = {}
                    for partial, cell in zip(partials, cells):
                        if not cell:
                            continue
                        sign, widx = cell
                        for pm, pc in partial.terms.items():
                            for k, bc in A.reduce_mono(mono_mul(mono, pm)).items():
                                add_to(row, self.col(k, widx), sign * pc * bc)
                    if row:
                        self._space.insert(row)

    def _graded_layout(self):
        """The layout of Omega^p of B = A[s]/s^N from A's modules, with no
        elimination.  Over each layer s^k it is Omega^p_A (block 0) plus
        Omega^(p-1)_A ^ ds (block 1); d(s^N) = N s^(N-1) ds kills block 1 of
        the top layer.  Sets _blocks, (module of A, its wedges' indices here)
        per block, and _back, (block, wedge index in A) per wedge here."""
        B = self.algebra
        blocks = [(omega_module(B.base, self.degree), ())]
        if self.degree:
            blocks.append((omega_module(B.base, self.degree - 1), (B.nvars - 1,)))
        self._blocks = tuple((M, tuple(self.wedge_index[w + tail] for w in M.wedges))
                             for M, tail in blocks)
        self._back = {wb: (b, w) for b, (_, wmap) in enumerate(self._blocks)
                      for w, wb in enumerate(wmap)}
        return tuple(sorted((B._place[k][a], wmap[w])
                            for b, (M, wmap) in enumerate(self._blocks)
                            for k in range(B.ext_order - b)  # block 1 stops below s^(N-1)
                            for a, w in M.layout))

    def reduce_free(self, free_vec):
        """Canonical reduced coordinates of a free-coordinate vector."""
        if self._space is not None:
            residual = self._space.reduce(free_vec)
            return {self.col_index[c]: v for c, v in residual.items() if v}
        # over A[s]/s^N: a column off the basis is reduced by its block's
        # module of A, whose rows are fully reduced, and placed back in its layer
        B, nw, col_index = self.algebra, len(self.wedges), self.col_index
        out = {}
        for c, v in free_vec.items():
            idx = col_index.get(c)
            if idx is not None:
                add_to(out, idx, v)
                continue
            i, wb = divmod(c, nw)
            a, k = B._layout[i]
            b, w = self._back[wb]
            if b and k == B.ext_order - 1:
                continue  # s^(N-1) ds, a multiple of d(s^N)
            M, wmap = self._blocks[b]
            place = B._place[k]
            for j, q in M.reduce_free({M.col(a, w): v}).items():
                a2, w2 = M.layout[j]
                add_to(out, col_index[place[a2] * nw + wmap[w2]], q)
        return out

    def form(self, free_vec=None):
        return DifferentialForm(self, self.reduce_free(free_vec) if free_vec else {})

    def basis_forms(self):
        return [DifferentialForm(self, {i: 1}) for i in range(self.dimension)]

    def label(self, reduced_idx):
        mono_idx, widx = self.layout[reduced_idx]
        mono = monomial_str(self.algebra.basis[mono_idx], self.algebra.names)
        dparts = "^".join(f"d{self.algebra.names[i]}" for i in self.wedges[widx])
        if self.degree == 0:
            return mono or "1"
        return f"{mono} {dparts}".strip()


class DifferentialForm:
    __slots__ = ("module", "coords")

    def __init__(self, module, coords):
        self.module, self.coords = module, coords

    def __bool__(self):
        return bool(self.coords)

    def _check(self, other):
        if self.module is not other.module:
            raise AlgebraMismatch("forms live in different modules")

    def __add__(self, other):
        self._check(other)
        res = dict(self.coords)
        for i, c in other.coords.items():
            add_to(res, i, c)
        return DifferentialForm(self.module, res)

    def __neg__(self):
        return DifferentialForm(self.module, {i: -c for i, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        q = rational(q)
        if not q:
            return DifferentialForm(self.module, {})
        return DifferentialForm(self.module, {i: rational(c * q) for i, c in self.coords.items()})

    def __eq__(self, other):
        return (isinstance(other, DifferentialForm)
                and self.module is other.module
                and self.coords == other.coords)

    def act(self, element):
        """Multiply by an algebra element, the A-module action.  An element is
        its 0-form, for `d`, `act` and `*` alike, so this is the kernel's
        wedge of that 0-form with self."""
        M = self.module
        A = M.algebra
        element = A.element(element)
        if not (self.coords and element.coords):
            return M.form()
        return M.form(A._product(element.coords, A._scalars, self.coords, M.layout,
                                 wedge_table(A.nvars, 0, M.degree), len(M.wedges)))

    def __str__(self):
        if not self.coords:
            return "0"
        parts = []
        for i in sorted(self.coords):
            c = self.coords[i]
            parts.append(f"({c})*[{self.module.label(i)}]")
        return " + ".join(parts)


def omega_module(algebra, p):
    """Omega^p of the algebra over Q, built once per algebra."""
    if p < 0:
        raise ValueError("degree must be nonnegative")
    return algebra.memo("omega", p, OmegaModule, algebra, p)


def d(x):
    """Universal derivation: elements to 1-forms, p-forms to (p+1)-forms.

    An element is taken as its 0-form, whose coordinates are its own."""
    if isinstance(x, AlgebraElement):
        x = omega_module(x.algebra, 0).form(x.coords)
    M = x.module
    A = M.algebra
    target = omega_module(A, M.degree + 1)
    table = wedge_table(A.nvars, 1, M.degree)
    free = {}
    for ridx, q in x.coords.items():
        mono_idx, widx = M.layout[ridx]
        mono = A.basis[mono_idx]
        for i, e in enumerate(mono):
            if not (e and table[i][widx]):
                continue
            sign, merged = table[i][widx]
            # m / x_i, a basis monomial: its normal form is itself
            for k, c in A.reduce_mono(mono[:i] + (e - 1,) + mono[i + 1:]).items():
                add_to(free, target.col(k, merged), q * e * sign * c)
    return target.form(free)


def wedge(f, g):
    """Graded-commutative exterior product of two forms over one algebra."""
    Mf, Mg = f.module, g.module
    if Mf.algebra is not Mg.algebra:
        raise AlgebraMismatch("wedge of forms over different algebras")
    A = Mf.algebra
    target = omega_module(A, Mf.degree + Mg.degree)
    return target.form(A._product(f.coords, Mf.layout, g.coords, Mg.layout,
                                  wedge_table(A.nvars, Mf.degree, Mg.degree), len(target.wedges)))


def dlog(u):
    """dlog(u) = du * u^{-1}, a 1-form; requires u to be a unit.

    Memoized per algebra on u's key: elements and forms are immutable, so
    every caller may share the one form.
    """
    if not u.augmentation():
        raise NotAUnit(f"dlog of non-unit {u}")
    A = u.algebra
    return A.memo("dlog", u.key(), lambda: d(u).act(invert_unit(A, u)))


def map_form(f, target_algebra):
    """The truncation Omega^p(A[s]/s^N) -> Omega^p(A[s]/s^M), M <= N, read
    through the layout.

    A basis form m dw keeps its wedge: it goes to m dw when m is a basis
    monomial of the target and to zero when m's s-degree is M or more.
    Used for the functorial projection and for checking that projections
    commute with d.
    """
    M = f.module
    src = M.algebra
    if (src.base is None or src.base is not target_algebra.base
            or src.names != target_algebra.names or src.ext_order < target_algebra.ext_order):
        raise AlgebraMismatch("map_form maps A[s]/s^N to A[s]/s^M, M <= N, of one algebra A")
    target = omega_module(target_algebra, M.degree)
    free = {}
    for ridx, q in f.coords.items():
        mono_idx, widx = M.layout[ridx]
        k = target_algebra.index.get(src.basis[mono_idx])
        if k is not None:
            free[target.col(k, widx)] = q
    return target.form(free)


class DecompositionReport(namedtuple("DecompositionReport", "n p direct_dim eq5_dim "
                                      "eq6_literal_dim eq6_corrected_dim verdict")):
    __slots__ = ()

    def record(self):
        return field_rows("decomposition", self)


def decomposition_report(algebra, n, p):
    """Compare dim Omega^p of A[s]/s^n against the two candidate splittings.

    For p = 1 the comparison is against dim(Omega^1_A)*n + dim(A)*(n-1).
    For p >= 2 both readings of the second summand are reported: the literal
    one uses Omega^p_A, the corrected one Omega^(p-1)_A.  The verdict names
    whichever matches the direct computation ("match" when both do).
    """
    if n < 1 or p < 1:
        raise OutOfDomain("need n >= 1 and p >= 1")
    # the generic presentation, eliminated from scratch: with no designated
    # sigma its spec is never truncated_extension's, so this verdict does not
    # come from the closed form it checks; s is named by extension_name
    s = extension_name(algebra)
    ext = derived_algebra(algebra, algebra.names + (s,), algebra.spec.relations + (f"{s}^{n}",))
    direct = omega_module(ext, p).dimension
    dim_line = n - 1  # dim Omega^1 of Q[s]/s^n
    dim_p = omega_module(algebra, p).dimension
    dim_pm1 = omega_module(algebra, p - 1).dimension
    corrected = dim_p * n + dim_pm1 * dim_line
    if p == 1:  # Omega^0_A = A, so eq5 is the corrected formula
        verdict = "match" if corrected == direct else "neither"
        return DecompositionReport(n, p, direct, corrected, None, None, verdict)
    literal = dim_p * n + dim_p * dim_line
    if direct == corrected and direct == literal:
        verdict = "match"
    elif direct == corrected:
        verdict = "corrected"
    elif direct == literal:
        verdict = "literal"
    else:
        verdict = "neither"
    return DecompositionReport(n, p, direct, None, literal, corrected, verdict)
