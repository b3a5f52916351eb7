"""The closed form of A[s]/s^N against the generic construction.

truncated_extension builds B = A[s]/s^N from A's data, and Omega^p of B is
a graded view of A's modules, layer by layer, that stores no relation row;
so s * and ds ^ send basis forms to basis forms.  Each piece must equal what
Buchberger, relation elimination, the module action and the wedge give on
the same presentation, exactly: the basis columns, the layout and the
reduced coordinates of every free unit vector are compared, and those
coordinates determine the reduced echelon form.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from milnork.algebra import (
    AlgebraElement,
    AlgebraSpec,
    TruncatedExtension,
    build_algebra,
    invert_unit,
    sigma_layers,
    truncated_extension,
)
from milnork.certify import ExtendedRealizer
from milnork.family import builtin_algebras
from milnork.kahler import (
    DifferentialForm,
    OmegaModule,
    d,
    decomposition_report,
    omega_module,
    wedge,
)
from milnork.linalg import RowSpace, rational
from test_bench_targets import _load

NAMED = (list(builtin_algebras())
         + [(name, build_algebra(AlgebraSpec(v, r)))
            for name, (v, r) in _load("workloads").ALGEBRAS.items()]
         # structure constants that are not integers: 3/2, and -2/15 and 1/5
         + [(name, build_algebra(AlgebraSpec(("x", "y"), r))) for name, r in (
             ("rational-a", ("x^2 - 3/2*y^2", "x*y")),
             ("rational-b", ("x^2 + 2/3*x*y - y^3", "y^2 - 5*x*y", "x^3")))])
ALGEBRAS = [A for _, A in NAMED]
IDS = [name for name, _ in NAMED]


def _generic(A, name, N):
    return build_algebra(AlgebraSpec(A.names + (name,), A.spec.relations + (f"{name}^{N}",),
                                     name))


def _assert_same_ring(B, G):
    assert B.basis == G.basis
    assert B.dimension == B.base.dimension * B.ext_order
    bound = [max(m[i] for m in B.basis) + 2 for i in range(B.nvars)]
    for mono in product(*(range(b) for b in bound)):
        assert B.reduce_mono(mono) == G.reduce_mono(mono), mono
    for i in range(B.dimension):
        for j in range(B.dimension):
            got = B.basis_element(i) * B.basis_element(j)
            assert got.coords == (G.basis_element(i) * G.basis_element(j)).coords


def _sparse(rng, dim):
    return {i: rng.choice((-3, -2, -1, 1, 2, 3)) for i in rng.sample(range(dim), min(dim, 6))}


def _assert_same_module(closed, generic, rng):
    """Omega^p of B against relation elimination on the generic presentation,
    coordinate by coordinate: the same basis columns and layout, and the same
    reduced coordinates of every free unit vector and of random sparse vectors."""
    assert closed._space is None and generic._space is not None
    assert closed.free_dim == generic.free_dim
    assert closed.basis_cols == generic.basis_cols
    assert closed.layout == generic.layout
    for c in range(closed.free_dim):
        assert closed.reduce_free({c: 1}) == generic.reduce_free({c: 1}), c
    for _ in range(8):
        vec = _sparse(rng, closed.free_dim)
        assert closed.reduce_free(vec) == generic.reduce_free(vec), vec


@pytest.mark.parametrize("A", ALGEBRAS, ids=IDS)
def test_ring_and_omega_match_generic(A):
    for N in (1, 2, 5, 12):
        B = truncated_extension(A, "sigma", N)
        G = _generic(A, "sigma", N)
        assert B.basis == G.basis, N
        if N <= 5:
            _assert_same_ring(B, G)
        rng = random.Random(N * 1000 + B.dimension)
        for p in (0, 1, 2, 3):
            _assert_same_module(omega_module(B, p), OmegaModule(G, p), rng)


def test_nested_extension_matches_generic():
    t3 = dict(NAMED)["Q[t]/t^3"]
    inner = truncated_extension(t3, "sigma", 3)
    B = truncated_extension(inner, "eps", 2)
    G = build_algebra(AlgebraSpec(("t", "sigma", "eps"), ("t^3", "sigma^3", "eps^2"), "eps"))
    _assert_same_ring(B, G)
    rng = random.Random(7)
    for p in (0, 1, 2, 3):
        _assert_same_module(omega_module(B, p), OmegaModule(G, p), rng)


@pytest.mark.parametrize("A", ALGEBRAS, ids=IDS)
def test_graded_products_match_generic(A):
    """Products and wedges over B, which stop at the truncation, against the
    generic presentation, which visits every pair; an element is its 0-form
    for `*` and `act` too."""
    for N in (1, 2, 3, 5):
        B, G = truncated_extension(A, "sigma", N), _generic(A, "sigma", N)
        assert G.base is None
        rng = random.Random(N * 1000 + B.dimension)
        zero_forms = omega_module(B, 0)
        for _ in range(6):
            f, g = _sparse(rng, B.dimension), _sparse(rng, B.dimension)
            e, e2 = AlgebraElement(B, f), AlgebraElement(B, g)
            assert (e * e2).coords == (AlgebraElement(G, f) * AlgebraElement(G, g)).coords, N
            assert (e * e2).coords == wedge(zero_forms.form(f), zero_forms.form(g)).coords, N
        for p, q in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 1)):
            (PB, QB), (PG, QG) = ((omega_module(R, p), omega_module(R, q)) for R in (B, G))
            if not (PB.dimension and QB.dimension):
                continue
            for _ in range(4):
                f = DifferentialForm(PB, _sparse(rng, PB.dimension))
                g = DifferentialForm(QB, _sparse(rng, QB.dimension))
                want = wedge(DifferentialForm(PG, f.coords), DifferentialForm(QG, g.coords))
                assert wedge(f, g).coords == want.coords, (N, p, q)
                assert f.act(e) == wedge(zero_forms.form(e.coords), f), (N, p)


def _dense(rng, dim):
    return {i: rng.choice((-3, -2, -1, 1, 2, 3)) for i in range(dim)}


@pytest.mark.parametrize("A", ALGEBRAS, ids=IDS)
def test_dense_action_matches_generic(A):
    """act over B, which skips each pair at or past the truncation, against
    the generic presentation, on forms and elements with every coordinate."""
    for N in (1, 2, 3, 5):
        B, G = truncated_extension(A, "sigma", N), _generic(A, "sigma", N)
        rng = random.Random(N * 1000 + B.dimension)
        e = _dense(rng, B.dimension)
        for p in (0, 1, 2):
            PB, PG = omega_module(B, p), omega_module(G, p)
            f = _dense(rng, PB.dimension)
            got = DifferentialForm(PB, f).act(AlgebraElement(B, e))
            assert got.coords == DifferentialForm(PG, f).act(AlgebraElement(G, e)).coords, (N, p)


def _geometric_inverse(u):
    """The reference inverse: the geometric series on the nilpotent part,
    summed by products in the whole ring."""
    B = u.algebra
    a = u.augmentation()
    minus_x = B.one - u * Fraction(1, a)
    acc = term = B.one
    while term:
        term = term * minus_x
        acc = acc + term
    return acc * Fraction(1, a)


def _unit(B, rng):
    """A unit of B = A[s]/s^N with nonzero layers s^0, s^1 and two more
    (fewer when N < 3), each a constant plus up to two more basis
    coordinates of A, with fractional coefficients."""
    A = B.base

    def layer():
        support = {0, *rng.sample(range(A.dimension), min(2, A.dimension))}
        return AlgebraElement(A, {i: rational(Fraction(rng.choice((-3, -1, 1, 2, 5)),
                                                       rng.choice((1, 2, 3, 7))))
                                  for i in support})

    degrees = {0, 1, *rng.sample(range(1, B.ext_order), 2)} if B.ext_order > 2 else range(B.ext_order)
    return AlgebraElement(B, {B._place[k][a]: q for k in degrees
                              for a, q in layer().coords.items()})


@pytest.mark.parametrize("A", ALGEBRAS, ids=IDS)
def test_inverse_by_division_in_a_matches_geometric_series(A):
    """invert_unit over B divides layer by layer in A; the inverse is
    unique, so its coordinates are the reference series' exactly."""
    for N in (1, 2, 3, 5, 12, 43):
        B = truncated_extension(A, "sigma", N)
        rng = random.Random(N * 1000 + A.dimension)
        for _ in range(2):
            u = _unit(B, rng)
            assert A.dimension == 1 or len(sigma_layers(u)[0].coords) > 1, N
            v = invert_unit(B, u)
            assert u * v == B.one, N
            assert v.coords == _geometric_inverse(u).coords, N


AUGMENTATIONS = (1, 2, Fraction(-1, 2), Fraction(1, 3))


def _units_with(B, rng):
    """For each augmentation above, a unit of B = A[s]/s^N with several live
    s-layers, scaled to it, and 1 + s times such a unit, whose s^0 layer is 1."""
    s = B.variable(B.ext_name)
    for aug in AUGMENTATIONS:
        u = _unit(B, rng)
        u = u * (Fraction(aug) / u.augmentation())
        assert u.augmentation() == aug
        yield u
        yield B.one + s * u


@pytest.mark.parametrize("A", ALGEBRAS, ids=IDS)
def test_inverse_times_the_unit_is_one(A):
    """invert_unit(B, u) * u == 1 over B = A[s]/s^N, N <= 16, and over A."""
    rng = random.Random(A.dimension)
    for N in (1, 2, 4, 9, 16):
        B = truncated_extension(A, "sigma", N)
        for u in _units_with(B, rng):
            assert invert_unit(B, u) * u == B.one, (N, str(u))
            assert u * invert_unit(B, u) == B.one, (N, str(u))
    for u in _units_with(truncated_extension(A, "sigma", 1), rng):
        u0 = sigma_layers(u)[0]  # a unit of A
        assert invert_unit(A, u0) * u0 == A.one, str(u0)


def test_inverse_makes_no_element_product_per_term(monkeypatch):
    """invert_unit sums coordinate vectors through the one product kernel:
    over A[s]/s^16 it makes no AlgebraElement product, where an element
    product per series term made more of them with every s-layer."""
    A = dict(NAMED)["rational-b"]
    B = truncated_extension(A, "sigma", 16)
    units = list(_units_with(B, random.Random(16)))
    calls = []
    mul = AlgebraElement.__mul__
    monkeypatch.setattr(AlgebraElement, "__mul__",
                        lambda self, other: calls.append(1) or mul(self, other))
    inverses = [invert_unit(B, u) for u in units]
    assert calls == []
    monkeypatch.undo()
    for u, v in zip(units, inverses):
        assert u * v == B.one


def _layout_images(M, M2, shift, tail):
    """For each basis form m dw of M, the reduced index in M2 of the free
    coordinate (m s^shift) d(w + tail), or None when that is no basis form."""
    R = M.algebra
    images = []
    for mono_idx, widx in M.layout:
        mono = R.basis[mono_idx]
        k = R.index.get(mono[:-1] + (mono[-1] + shift,))
        w = M.wedges[widx] + tail
        ok = k is not None and w in M2.wedge_index
        images.append(M2.col_index.get(M2.col(k, M2.wedge_index[w])) if ok else None)
    return images


def _layout_read(images, form):
    return {images[i]: v for i, v in form.coords.items() if images[i] is not None}


@pytest.mark.parametrize("A", ALGEBRAS, ids=IDS)
def test_realizer_layout_read_matches_act_and_wedge(A):
    """In the realizer's ring R = A[s]/s^(N+1), s * eta and beta ^ ds, which
    the realizer forms with act and wedge, are read off the layout: R's
    relations are A's copied to each s-layer, so a basis form goes to a basis
    form, or to zero on s^(N+1) and on the ds layer that d(s^(N+1)) kills."""
    for N in (1, 2, 3, 5, 12):
        realizer = ExtendedRealizer(A, N)
        M1, M2, s = realizer.omega1, realizer.omega2, realizer.s
        times_s = _layout_images(M2, M2, 1, ())
        wedge_ds = _layout_images(M1, M2, 0, (realizer.ring.nvars - 1,))
        for eta in M2.basis_forms():
            assert _layout_read(times_s, eta) == eta.act(s).coords, N
        for beta in M1.basis_forms():
            assert _layout_read(wedge_ds, beta) == wedge(beta, d(s)).coords, N


def _lift(form, module):
    """A form of A[s]/s^N written on the same (monomial, wedge) columns of
    `module`, over A[s]/s^(N+1); not a map of forms, but s * and ds ^ of it are."""
    src, dst = form.module, module.algebra
    free = {}
    for i, v in form.coords.items():
        mono_idx, widx = src.layout[i]
        free[module.col(dst.index[src.algebra.basis[mono_idx]], widx)] = v
    return module.form(free)


@pytest.mark.parametrize("A", ALGEBRAS, ids=IDS)
def test_honest_form_kernel_is_z(A):
    """(eta, beta) -> s * eta + ds ^ beta, from Omega^2 + Omega^1 of
    A[s]/s^N to Omega^2(A[s]/s^(N+1)), has kernel exactly Z: the span of
    (ds ^ alpha, -s * alpha) and (0, b ds), the rows by which the pair
    encoding eta + dlog(s) ^ beta is redundant."""
    for N in (1, 2, 3, 5, 12):
        realizer = ExtendedRealizer(A, N)
        R = realizer.ring
        B = truncated_extension(A, R.ext_name, N)
        M1, M2 = omega_module(B, 1), omega_module(B, 2)
        s_big, s = R.variable(R.ext_name), B.variable(R.ext_name)
        ds_big, ds = d(s_big), d(s)

        def honest(eta, beta):
            return (_lift(eta, realizer.omega2).act(s_big)
                    + wedge(ds_big, _lift(beta, realizer.omega1)))

        z = RowSpace()
        for alpha in M1.basis_forms():
            eta, beta = wedge(ds, alpha), -alpha.act(s)
            assert not honest(eta, beta), N
            z.insert({**eta.coords, **{M2.dimension + i: v for i, v in beta.coords.items()}})
        for i in range(B.dimension):
            beta = ds.act(B.basis_element(i))
            assert not honest(M2.form(), beta), N
            z.insert({M2.dimension + j: v for j, v in beta.coords.items()})
        image = RowSpace()
        for eta in M2.basis_forms():
            image.insert(dict(honest(eta, M1.form()).coords))
        for beta in M1.basis_forms():
            image.insert(dict(honest(M2.form(), beta).coords))
        assert image.rank == M2.dimension + M1.dimension - z.rank, N


def test_decomposition_uses_the_generic_ring(monkeypatch):
    def closed_form_used(self):
        raise AssertionError("decomposition_report built Omega^p as a graded view")

    monkeypatch.setattr(OmegaModule, "_graded_layout", closed_form_used)
    XY = build_algebra(AlgebraSpec(("x", "y"), ("x^2", "x*y", "y^2")))
    rep = decomposition_report(XY, 3, 2)
    assert rep.verdict == "corrected" and rep.direct_dim == rep.eq6_corrected_dim
    (generic,) = XY._memo["derived"].values()
    assert not isinstance(generic, TruncatedExtension)
    assert truncated_extension(XY, "sigma", 3) is not generic


def test_graded_modules_store_no_rows(monkeypatch):
    """Omega^1 and Omega^2 of A[s]/s^N eliminate nothing and hold no echelon
    row, so the rows held are A's own at every N."""
    m4 = build_algebra(AlgebraSpec(*_load("workloads").ALGEBRAS["Q[x,y]/m^4"]))
    a_rows = sum(omega_module(m4, p)._space.rank for p in (0, 1, 2))
    inserts, insert = [], RowSpace.insert
    monkeypatch.setattr(RowSpace, "insert",
                        lambda space, row: inserts.append(row) or insert(space, row))
    for N in (43, 128):
        B = truncated_extension(m4, "sigma", N)
        for p in (1, 2):
            M = omega_module(B, p)
            assert M._space is None and M.dimension < M.free_dim, (N, p)
        assert not inserts, N
        held = sum(M._space.rank for R in (m4, B) for M in R._memo["omega"].values()
                   if M._space is not None)
        assert held == a_rows, N
