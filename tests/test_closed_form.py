"""The closed form of A[s]/s^N against the generic construction.

truncated_extension builds B = A[s]/s^N, its Omega^p relation echelon forms
and the crosscheck realizer's Z space from A's data.  Each piece must equal
what Buchberger, relation elimination and RowSpace.insert give on the same
presentation, exactly: reduced echelon forms are unique, so the pivot rows
themselves are compared, not only their count.
"""

from itertools import product

import pytest

from milnork.algebra import AlgebraSpec, TruncatedExtension, build_algebra, truncated_extension
from milnork.certify import ExtendedRealizer
from milnork.family import builtin_algebras
from milnork.kahler import OmegaModule, d, decomposition_report, omega_module, wedge
from milnork.linalg import RowSpace, add_to
from test_bench_targets import _load

NAMED = (list(builtin_algebras())
         + [(name, build_algebra(AlgebraSpec(v, r)))
            for name, (v, r) in _load("workloads").ALGEBRAS.items()])
ALGEBRAS = [A for _, A in NAMED]
IDS = [name for name, _ in NAMED]


def _generic(A, name, N):
    return build_algebra(AlgebraSpec(A.names + (name,), A.spec.relations + (f"{name}^{N}",),
                                     name))


def _assert_same_ring(B, G):
    assert B.groebner == G.groebner
    assert B.basis == G.basis
    assert B.dimension == B.base.dimension * B.ext_order
    bound = [max(m[i] for m in B.basis) + 2 for i in range(B.nvars)]
    for mono in product(*(range(b) for b in bound)):
        assert B.reduce_mono(mono) == G.reduce_mono(mono), mono
    for i in range(B.dimension):
        for j in range(B.dimension):
            assert B.pair_product(i, j) == G.pair_product(i, j)


@pytest.mark.parametrize("A", ALGEBRAS, ids=IDS)
def test_ring_and_omega_match_generic(A):
    for N in (1, 2, 5, 12):
        B = truncated_extension(A, "sigma", N)
        G = _generic(A, "sigma", N)
        assert B.groebner == G.groebner and B.basis == G.basis, N
        if N <= 5:
            _assert_same_ring(B, G)
        for p in (1, 2, 3):
            closed, generic = omega_module(B, p), OmegaModule(G, p)
            assert closed._space.pivots == generic._space.pivots, (N, p)
            assert closed.basis_cols == generic.basis_cols, (N, p)


def test_nested_extension_matches_generic():
    t3 = dict(NAMED)["Q[t]/t^3"]
    inner = truncated_extension(t3, "sigma", 3)
    B = truncated_extension(inner, "eps", 2)
    G = build_algebra(AlgebraSpec(("t", "sigma", "eps"), ("t^3", "sigma^3", "eps^2"), "eps"))
    _assert_same_ring(B, G)
    for p in (1, 2, 3):
        assert omega_module(B, p)._space.pivots == OmegaModule(G, p)._space.pivots


def _inserted_z(realizer):
    """Z as the span of its defining rows, eliminated by RowSpace.insert."""
    z = RowSpace()
    off = realizer._offset
    sigma = realizer.ring.variable("sigma")
    d_sigma = d(sigma)
    for alpha in realizer.omega1.basis_forms():
        row = dict(wedge(d_sigma, alpha).coords)
        for i, v in alpha.act(sigma).coords.items():
            add_to(row, off + i, -v)
        if row:
            z.insert(row)
    for i in range(realizer.ring.dimension):
        row = {off + i: v for i, v in d_sigma.act(realizer.ring.basis_element(i)).coords.items()}
        if row:
            z.insert(row)
    return z.pivots


@pytest.mark.parametrize("A", ALGEBRAS, ids=IDS)
def test_realizer_z_matches_insert(A):
    for N in (1, 2, 3, 5, 12):
        realizer = ExtendedRealizer(A, N)
        assert realizer._z.pivots == _inserted_z(realizer), N


def test_decomposition_uses_the_generic_ring(monkeypatch):
    def closed_form_used(self):
        raise AssertionError("decomposition_report built Omega^p in closed form")

    monkeypatch.setattr(OmegaModule, "_copy_relations", closed_form_used)
    XY = build_algebra(AlgebraSpec(("x", "y"), ("x^2", "x*y", "y^2")))
    rep = decomposition_report(XY, 3, 2)
    assert rep.verdict == "corrected" and rep.direct_dim == rep.eq6_corrected_dim
    (generic,) = XY._derived.values()
    assert not isinstance(generic, TruncatedExtension)
    assert truncated_extension(XY, "sigma", 3) is not generic
