import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from milnork import kahler
from milnork.algebra import (
    AlgebraElement,
    AlgebraSpec,
    TruncatedExtension,
    build_algebra,
    transport,
    truncated_extension,
)
from milnork.certify import MAX_PRECISION, shared_realizer, splitting_certificate
from milnork.errors import AlgebraMismatch, NotAUnit
from milnork.poly import mono_mul
from milnork.kahler import (
    DifferentialForm,
    _merge_sign,
    d,
    decomposition_report,
    dlog,
    map_form,
    omega_module,
    wedge,
    wedge_table,
)


def alg(variables, relations):
    return build_algebra(AlgebraSpec(tuple(variables), tuple(relations)))


# -- an independent oracle: dense row reduction of an explicit presentation ----

def _oracle_rank(rows):
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _omega1_dim_truncated_poly_oracle(m):
    """Omega^1 of Q[t]/t^m from the explicit presentation.

    Free module on {t^i dt : i < m}; relations are t^j * d(t^m) with any
    product landing at exponent >= m equal to zero.
    """
    rows = []
    for j in range(m):
        row = [0] * m
        if m - 1 + j < m:
            row[m - 1 + j] = m
        rows.append(row)
    rows = [r for r in rows if any(r)]
    rank = _oracle_rank(rows) if rows else 0
    return m - rank


def _omega2_dim_square_zero_oracle():
    """Omega^2 of Q[x,y]/(x,y)^2: free on {b dx^dy : b in 1,x,y} with the
    relation vectors enumerated by hand from dF ^ dx_T."""
    rows = [
        [0, 2, 0],   # d(x^2) ^ dy = 2x dx^dy
        [0, -1, 0],  # d(xy) ^ dx = -x dx^dy
        [0, 0, 1],   # d(xy) ^ dy = y dx^dy
        [0, 0, -2],  # d(y^2) ^ dx = -2y dx^dy
    ]
    return 3 - _oracle_rank(rows)


@pytest.mark.parametrize("m", range(2, 7))
def test_omega1_dimension_family(m):
    A = alg(["t"], [f"t^{m}"])
    assert omega_module(A, 1).dimension == m - 1
    assert omega_module(A, 1).dimension == _omega1_dim_truncated_poly_oracle(m)


def test_omega1_basis_t3():
    A = alg(["t"], ["t^3"])
    M = omega_module(A, 1)
    assert [M.label(i) for i in range(M.dimension)] == ["dt", "t dt"]


def test_omega_zero_degree_matches_algebra():
    for A in (alg([], []), alg(["t"], ["t^3"]), alg(["x", "y"], ["x^2", "x*y", "y^2"])):
        assert omega_module(A, 0).dimension == A.dimension


def test_omega_above_variable_count_is_zero():
    A = alg([], [])
    assert omega_module(A, 1).dimension == 0
    A3 = alg(["t"], ["t^3"])
    assert omega_module(A3, 2).dimension == 0


@pytest.mark.parametrize("variables, relations, p", [
    ([], [], 1), ([], [], 3), (["t"], ["t^3"], 2), (["t"], ["t^3"], 5),
    (["x", "y"], ["x^2", "x*y", "y^2"], 3), (["x", "y"], ["x^2", "y^2"], 4),
])
def test_omega_above_variable_count_has_no_wedge_and_no_relation(variables, relations, p):
    """No cell of the wedge table is usable, so the relation loop makes no row."""
    M = omega_module(alg(variables, relations), p)
    assert (M.wedges, M.free_dim, M.basis_cols, M.layout, M.dimension) == ((), 0, (), (), 0)
    assert M._space.pivots == {}


def test_omega2_square_zero():
    A = alg(["x", "y"], ["x^2", "x*y", "y^2"])
    M = omega_module(A, 2)
    assert M.dimension == 1 == _omega2_dim_square_zero_oracle()
    assert M.label(0) == "dx^dy"


def _by_label(form):
    """A form's coefficients keyed by the labels of its basis forms."""
    return {form.module.label(i): c for i, c in form.coords.items()}


def test_d_examples():
    A = alg(["t"], ["t^3"])
    assert _by_label(d(A.element("t^2"))) == {"t dt": 2}
    assert not d(A.one)
    XY = alg(["x", "y"], ["x^2", "x*y", "y^2"])
    x_dy = d(XY.element("y")).act(XY.element("x"))
    assert d(x_dy) == wedge(d(XY.element("x")), d(XY.element("y")))


def test_dd_zero_everywhere():
    for A in (alg(["t"], ["t^5"]), alg(["x", "y"], ["x^2", "x*y", "y^2"])):
        B = truncated_extension(A, "sigma", 3)
        for mono_str in B.monomial_strings():
            e = B.element(mono_str)
            assert not d(d(e))
        for form in omega_module(B, 1).basis_forms():
            assert not d(d(form))


def test_leibniz():
    A = alg(["t"], ["t^4"])
    a = A.element("1 + 2*t + t^3")
    b = A.element("3 - t^2")
    assert d(a * b) == d(b).act(a) + d(a).act(b)


def test_wedge_alternates_and_distributes():
    A = alg(["x", "y"], ["x^2", "x*y", "y^2"])
    fx, fy = d(A.element("x")), d(A.element("y"))
    assert not wedge(fx, fx)
    assert wedge(fx, fy) == -wedge(fy, fx)
    g = fx + fy
    assert wedge(g, fy) == wedge(fx, fy) + wedge(fy, fy)
    assert wedge(fx, fy).coords == {0: Fraction(1)}


@pytest.mark.parametrize("n", range(5))
def test_wedge_table_is_merge_sign_and_sorted_merge(n):
    for p in range(n + 1):
        for q in range(n + 1):
            merged = list(combinations(range(n), p + q))
            table = wedge_table(n, p, q)
            for i, a in enumerate(combinations(range(n), p)):
                for j, b in enumerate(combinations(range(n), q)):
                    want = None if set(a) & set(b) else (
                        _merge_sign(a, b), merged.index(tuple(sorted(a + b))))
                    assert table[i][j] == want, (n, p, q, a, b)


class _Placed(int):
    """A ring index of a basis element of A[s]/s^N that remembers its s-degree."""

    def __new__(cls, index, degree):
        self = super().__new__(cls, index)
        self.degree = degree
        return self


class _CountingTable:
    """A's product table seen from an A[s]/s^N: each entry the kernel reads
    is a pair it multiplies, and a dead one when the s-degrees of the two
    factors add up to N or more."""

    def __init__(self, products, order, counts):
        self.products, self.order, self.counts = products, order, counts

    def __getitem__(self, a):
        return _CountingRow(self.products[a], a, self)


class _CountingRow:
    def __init__(self, row, a, table):
        self.row, self.a, self.table = row, a, table

    def __getitem__(self, b):
        counts = self.table.counts
        counts["pairs"] += 1
        counts["dead"] += self.a.degree + b.degree >= self.table.order
        return self.row[b]


class _CountingRing:
    """The ring A of an A[s]/s^N, whose product table counts the pairs its
    product loops multiply: the kernel reads each one from the table once,
    and pair_product only fills an entry on first use."""

    def __init__(self, ring, order, counts):
        self.ring, self._products = ring, _CountingTable(ring._products, order, counts)

    def pair_product(self, a, b):
        return self.ring.pair_product(a, b)


def _count_kernel_work(monkeypatch):
    """Counters for the pairs multiplied over A[s]/s^N (each truncated
    algebra built from here on reads A through a _CountingRing), the dead
    ones among them, _merge_sign calls and the wedge-table cells built; the
    table cache starts empty."""
    counts = {"pairs": 0, "dead": 0, "signs": 0, "tables": set()}
    init, merge_sign, table = (TruncatedExtension.__init__, kahler._merge_sign,
                               kahler.wedge_table)

    def counted_init(self, base, spec, order):
        init(self, base, spec, order)
        self._layout = tuple((_Placed(a, k), k) for a, k in self._layout)
        self.ring = _CountingRing(self.ring, order, counts)

    def counted_merge_sign(left, right):
        counts["signs"] += 1
        return merge_sign(left, right)

    def recorded_table(nvars, p, q):
        counts["tables"].add((nvars, p, q))
        return table(nvars, p, q)

    monkeypatch.setattr(TruncatedExtension, "__init__", counted_init)
    monkeypatch.setattr(kahler, "_merge_sign", counted_merge_sign)
    monkeypatch.setattr(kahler, "wedge_table", recorded_table)
    table.cache_clear()
    return counts


def test_cap_run_skips_vanishing_pairs(monkeypatch):
    """The eq7 crosscheck's realizer at the precision cap: products over
    A[s]/s^N stop at the truncation, the inverse divides layer by layer in A,
    and each wedge sign is computed once, in its table."""
    counts = _count_kernel_work(monkeypatch)
    A = alg(["t"], ["t^3"])
    cert = splitting_certificate(A, A.element("1+t"), 2)
    realizer = shared_realizer(A, MAX_PRECISION)
    assert all(realizer.agreement(cert.replay.states))
    realizer.realize_state(cert.goal)  # as for final_zero
    assert counts["dead"] == 0  # 86 before act skipped them, 133,686 with no graded stop
    # 132,305 pairs; 234,555 when the inverse is a geometric series in A[s]/s^N
    assert 0 < counts["pairs"] <= 150_000
    cells = sum(comb(n, p) * comb(n, q) for n, p, q in counts["tables"])
    assert 0 < counts["signs"] <= cells


def test_truncated_mul_and_wedge_make_no_dead_products(monkeypatch):
    counts = _count_kernel_work(monkeypatch)
    B = truncated_extension(alg(["x", "y"], ["x^2", "x*y", "y^2"]), "sigma", 4)
    f, g = (sum((B.basis_element(i) * (i + k) for i in range(B.dimension)), B.element(0))
            for k in (1, -2))
    df, dg = d(f), d(g)
    dx_g = d(B.variable("x")).act(g)
    assert f * g and wedge(df, dg)
    wedge(dx_g, wedge(df, dg))
    assert counts["pairs"] and counts["dead"] == 0


def _reference(A, f, f_cells, g, g_cells, target, skipped):
    """The free vector of f * g in `target`, pair by pair: each pair of basis
    monomials multiplied by mono_mul and reduced by reduce_mono, each pair of
    wedges signed by counting inversions.  f_cells and g_cells give each
    coordinate as (basis index, wedge tuple); a pair sharing a differential
    is skipped and counted in skipped[0]."""
    free = {}
    for i, c1 in f.items():
        m1, a = f_cells[i]
        for j, c2 in g.items():
            m2, b = g_cells[j]
            if set(a) & set(b):
                skipped[0] += 1
                continue
            sign = (-1) ** sum(1 for x in a for y in b if x > y)
            merged = target.wedge_index[tuple(sorted(a + b))]
            for t, c in A.reduce_mono(mono_mul(A.basis[m1], A.basis[m2])).items():
                col = t * len(target.wedges) + merged
                free[col] = free.get(col, 0) + sign * c1 * c2 * c
    return {col: v for col, v in free.items() if v}


def _cells(M):
    return [(m, M.wedges[w]) for m, w in M.layout]


def _kernel_algebras():
    A = alg(["x", "y"], ["x^2 - 3/2*y^2", "x*y"])  # x^2 reduces to 3/2 y^2
    B = truncated_extension(A, "sigma", 3)
    return {"plain": A, "truncated": B, "nested": truncated_extension(B, "eps", 2)}


def _assert_stored_exactly(coords):
    for v in coords.values():
        assert v and (type(v) is int or v.denominator != 1), v


@pytest.mark.parametrize("name", ["plain", "truncated", "nested"])
def test_kernel_matches_a_pair_by_pair_reference(name):
    """`*`, `act` and `wedge` against products built pair by pair from
    reduce_mono(mono_mul(...)): over a plain algebra, over A[s]/s^N, whose
    kernel reads A's product table, and over (A[s]/s^N)[t]/t^M, whose ring is
    itself a truncated extension.  The results and the table store no zero
    and each whole value as an int."""
    R = _kernel_algebras()[name]
    rng = random.Random(R.dimension)
    values = (-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3))

    def sparse(dim):
        return {i: rng.choice(values) for i in rng.sample(range(dim), min(4, dim))}

    scalars = [(i, ()) for i in range(R.dimension)]
    zero_forms = omega_module(R, 0)
    f, g = R.element("x + y"), R.element("2*x - 3*y")
    assert not f * g  # 2x^2 - 3y^2 = 0: two pairs cancel
    elements = [f, g] + [AlgebraElement(R, sparse(R.dimension)) for _ in range(4)]
    forms = {p: [d(f), d(g)] if p == 1 else [] for p in range(3)}
    for p in range(3):
        M = omega_module(R, p)
        forms[p] += [DifferentialForm(M, sparse(M.dimension)) for _ in range(3)]
    skipped, fractions = [0], 0
    for e in elements:
        for e2 in elements:
            got = e * e2
            assert got.coords == _reference(R, e.coords, scalars, e2.coords, scalars,
                                             zero_forms, skipped)
            _assert_stored_exactly(got.coords)
        for p, group in forms.items():
            M = omega_module(R, p)
            for form in group:
                got = form.act(e)
                assert got.coords == M.form(_reference(R, e.coords, scalars, form.coords,
                                                       _cells(M), M, skipped)).coords
                _assert_stored_exactly(got.coords)
                fractions += any(type(v) is Fraction for v in got.coords.values())
    for p, group in forms.items():
        for q, group2 in forms.items():
            if p + q > 2:
                continue
            Mp, Mq, target = omega_module(R, p), omega_module(R, q), omega_module(R, p + q)
            for form in group:
                for form2 in group2:
                    got = wedge(form, form2)
                    assert got.coords == target.form(_reference(
                        R, form.coords, _cells(Mp), form2.coords, _cells(Mq), target,
                        skipped)).coords
                    _assert_stored_exactly(got.coords)
    assert not wedge(d(f) + d(g), d(f) + d(g))  # dx ^ dy + dy ^ dx = 0
    assert skipped[0] and fractions  # shared differentials met, Fractions produced
    for row in R.ring._products.values():
        for terms in row:
            _assert_stored_exactly(dict(terms or ()))


def test_wedge_mismatch():
    A = alg(["t"], ["t^3"])
    B = alg(["t"], ["t^2"])
    with pytest.raises(AlgebraMismatch):
        wedge(d(A.element("t")), d(B.element("t")))


def test_forms_of_two_algebras_do_not_meet():
    A = alg(["t"], ["t^3"])
    B = alg(["t"], ["t^2"])
    dt = d(A.element("t"))
    with pytest.raises(AlgebraMismatch, match="element belongs to a different algebra"):
        dt.act(B.element("1 + t"))
    with pytest.raises(AlgebraMismatch, match="forms live in different modules"):
        dt + d(B.element("t"))
    with pytest.raises(AlgebraMismatch, match="forms live in different modules"):
        dt + d(dt)  # one algebra, two degrees


def test_dlog_examples():
    A = alg(["t"], ["t^3"])
    f = dlog(A.element("1+t"))
    assert f.coords == {0: Fraction(1), 1: Fraction(-1)}
    assert not dlog(A.element("5"))
    u = A.element("1 - 2*t + t^2")
    from milnork.algebra import invert_unit

    assert dlog(u) + dlog(invert_unit(A, u)) == omega_module(A, 1).form()
    with pytest.raises(NotAUnit):
        dlog(A.element("t"))


def test_dlog_multiplicative():
    A = alg(["x", "y"], ["x^2", "x*y", "y^2"])
    u = A.element("1 + x")
    v = A.element("2 + y")
    assert dlog(u * v) == dlog(u) + dlog(v)


def test_dlog_memo_stays_in_its_algebra():
    # two algebras with the same variable names: 1+t has the same key in
    # each, yet each dlog lives in its own algebra's module
    A = alg(["t"], ["t^3"])
    twin = alg(["t"], ["t^3"])
    B = alg(["t"], ["t^4"])
    forms = [dlog(R.element("1+t")) for R in (A, twin, B)]
    for R, f in zip((A, twin, B), forms):
        assert f.module is omega_module(R, 1)
    assert forms[0].coords == forms[1].coords
    assert forms[2].coords == {0: Fraction(1), 1: Fraction(-1), 2: Fraction(1)}


def test_dlog_repeated_calls_agree():
    A = alg(["x", "y"], ["x^2", "x*y", "y^2"])
    first = dlog(A.element("2 + x - y"))
    again = dlog(A.element("2 + x - y"))
    assert again == first
    inverse = (A.element(2) - A.element("x") + A.element("y")) * Fraction(1, 4)
    assert again == d(A.element("2 + x - y")).act(inverse)
    with pytest.raises(NotAUnit):
        dlog(A.element("x"))


def test_scale_by_one_is_the_form_itself():
    """Forms never change, so a factor 1 hands back the form; a factor 0 still
    gives the zero form of the form's module."""
    A = alg(["x", "y"], ["x^2", "x*y", "y^2"])
    f = dlog(A.element("2 + x - y"))
    assert f and f.scale(1) is f and f.scale(Fraction(1)) is f and f.scale("1") is f
    zero = f.scale(0)
    assert not zero and zero.module is f.module and zero == omega_module(A, 1).form()
    half = f.scale(Fraction(1, 2))
    assert half is not f and half + half == f


def test_functorial_projection_commutes_with_d():
    A = alg(["t"], ["t^3"])
    big = truncated_extension(A, "sigma", 3)
    small = truncated_extension(A, "sigma", 2)
    for text in big.monomial_strings():
        e = big.element(text)
        assert map_form(d(e), small) == d(transport(e, small))


def test_projection_surjective_on_forms():
    A = alg(["t"], ["t^2"])
    big = truncated_extension(A, "sigma", 3)
    small = truncated_extension(A, "sigma", 2)
    M_small = omega_module(small, 1)
    from milnork.linalg import RowSpace

    space = RowSpace()
    for form in omega_module(big, 1).basis_forms():
        space.insert(dict(map_form(form, small).coords))
    assert space.rank == M_small.dimension


def test_decomposition_p1_examples():
    rep = decomposition_report(alg(["t"], ["t^2"]), 2, 1)
    assert rep.direct_dim == 4 and rep.eq5_dim == 4 and rep.verdict == "match"
    rep = decomposition_report(alg([], []), 3, 1)
    assert rep.direct_dim == 2 and rep.eq5_dim == 2 and rep.verdict == "match"


def test_decomposition_p2_resolves_ambiguity():
    rep = decomposition_report(alg(["t"], ["t^2"]), 2, 2)
    assert rep.direct_dim == 1
    assert rep.eq6_literal_dim == 0
    assert rep.eq6_corrected_dim == 1
    assert rep.verdict == "corrected"


def test_decomposition_p2_trivial_base_matches_both():
    rep = decomposition_report(alg([], []), 2, 2)
    assert rep.verdict == "match"


def test_decomposition_p3_uses_next_lower_degree():
    XY = alg(["x", "y"], ["x^2", "x*y", "y^2"])
    for n in (2, 3):
        rep = decomposition_report(XY, n, 3)
        assert rep.direct_dim == rep.eq6_corrected_dim == n - 1
        assert rep.eq6_literal_dim == 0 and rep.verdict == "corrected"


def test_decomposition_over_a_sigma_variable():
    # s is named by extension_name, so a variable called sigma is only a name
    A, T = alg(["sigma"], ["sigma^2"]), alg(["t"], ["t^2"])
    for n in (1, 2, 3):
        for p in (1, 2, 3):
            assert decomposition_report(A, n, p) == decomposition_report(T, n, p), (n, p)
    assert decomposition_report(A, 3, 2).verdict == "corrected"


def test_action_matrices_respect_multiplication():
    A = alg(["x", "y"], ["x^2", "x*y", "y^2"])
    M = omega_module(A, 1)
    x, y = A.element("x"), A.element("1 + y")
    forms = M.basis_forms()
    for form in forms:
        # the action of a product is the composite of the actions
        assert form.act(x * y) == form.act(y).act(x) == form.act(x).act(y)
        # and the action is additive in the element and Q-linear in the form
        assert form.act(x + y) == form.act(x) + form.act(y)
    total = forms[0].scale(2) + forms[-1]
    assert total.act(x) == forms[0].act(x).scale(2) + forms[-1].act(x)


def test_form_printing_round_trips_visually():
    A = alg(["t"], ["t^3"])
    f = dlog(A.element("1+t"))
    assert _by_label(f) == {"dt": 1, "t dt": -1}
    assert _by_label(omega_module(A, 1).form()) == {}


def test_map_form_only_truncates():
    A = alg(["t"], ["t^3"])
    big = truncated_extension(A, "sigma", 3)
    f = dlog(big.element("1 + t*sigma"))
    assert map_form(f, truncated_extension(A, "sigma", 2)) == dlog(
        truncated_extension(A, "sigma", 2).element("1 + t*sigma"))
    # A itself, another extension name, another base, a longer truncation
    for target in (A, truncated_extension(A, "eps", 2),
                   truncated_extension(alg(["t"], ["t^2"]), "sigma", 2),
                   truncated_extension(A, "sigma", 4)):
        with pytest.raises(AlgebraMismatch):
            map_form(f, target)
    with pytest.raises(AlgebraMismatch):
        map_form(dlog(A.element("1 + t")), A)
