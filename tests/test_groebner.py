"""The reduced Groebner basis and staircase of every algebra the suites and the
benchmark build, pinned, with the properties that make the basis reduced; and
the construction work, counted in leading-term computations."""

from fractions import Fraction

import pytest

from milnork import poly
from milnork.algebra import AlgebraSpec, build_algebra, truncated_extension
from milnork.expr import parse_polynomial, polynomial_str
from milnork.family import _SPECS
from milnork.kahler import omega_module
from milnork.poly import Polynomial, degrevlex_key, mono_div, mono_divides, mono_lcm

_M4_XY = tuple(f"x^{a}*y^{4 - a}" for a in range(5))
_M4_XYZ = tuple(f"x^{a}*y^{b}*z^{4 - a - b}" for a in range(5) for b in range(5 - a))

# name -> (variables, relations): the builtin family, the benchmark's six
# algebras and two with non-monomial relations
PINS = {name: (v, r) for name, v, r in _SPECS}
PINS.update({
    "Q[x,y]/m^4": (("x", "y"), _M4_XY),
    "Q[x,y,z]/(x^2,y^2,z^2)": (("x", "y", "z"), ("x^2", "y^2", "z^2")),
    "Q[x,y,z]/m^4": (("x", "y", "z"), _M4_XYZ),
    "Q[x,y,z]/(x^2+y^2+z^2,xy-z^2,yz,x^3)": (
        ("x", "y", "z"), ("x^2+y^2+z^2", "x*y-z^2", "y*z", "x^3")),
    "rational-a": (("x", "y"), ("x^2 - 3/2*y^2", "x*y")),
    "rational-b": (("x", "y"), ("x^2 + 2/3*x*y - y^3", "y^2 - 5*x*y", "x^3")),
})
_M4_XY_BASIS = ["1", "y", "x", "y^2", "x*y", "x^2", "y^3", "x*y^2", "x^2*y", "x^3"]
# name -> (Groebner basis, staircase), as printed; pinned before each leading
# term was computed once
EXPECTED = {
    "Q": ([], ["1"]),
    "Q[t]/t^2": (["t^2"], ["1", "t"]),
    "Q[t]/t^3": (["t^3"], ["1", "t", "t^2"]),
    "Q[t]/t^5": (["t^5"], ["1", "t", "t^2", "t^3", "t^4"]),
    "Q[x,y]/(x,y)^2": (["y^2", "x*y", "x^2"], ["1", "y", "x"]),
    "Q[x,y]/(x^2,xy,y^2,y^3)": (["y^2", "x*y", "x^2"], ["1", "y", "x"]),
    "Q[x,y]/m^4": (["y^4", "x*y^3", "x^2*y^2", "x^3*y", "x^4"], _M4_XY_BASIS),
    "Q[x,y,z]/(x^2,y^2,z^2)": (
        ["z^2", "y^2", "x^2"], ["1", "z", "y", "x", "y*z", "x*z", "x*y", "x*y*z"]),
    "Q[x,y,z]/m^4": (
        ["z^4", "y*z^3", "x*z^3", "y^2*z^2", "x*y*z^2", "x^2*z^2", "y^3*z", "x*y^2*z",
         "x^2*y*z", "x^3*z", "y^4", "x*y^3", "x^2*y^2", "x^3*y", "x^4"],
        ["1", "z", "y", "x", "z^2", "y*z", "x*z", "y^2", "x*y", "x^2", "z^3", "y*z^2",
         "x*z^2", "y^2*z", "x*y*z", "x^2*z", "y^3", "x*y^2", "x^2*y", "x^3"]),
    "Q[x,y,z]/(x^2+y^2+z^2,xy-z^2,yz,x^3)": (
        ["y*z", "x*y - z^2", "x^2 + y^2 + z^2", "z^3", "x*z^2", "y^3"],
        ["1", "z", "y", "x", "z^2", "x*z", "y^2"]),
    "rational-a": (["x*y", "x^2 - 3/2*y^2", "y^3"], ["1", "y", "x", "y^2"]),
    "rational-b": (["x*y - 1/5*y^2", "x^2 + 2/15*y^2", "y^3"], ["1", "y", "x", "y^2"]),
}


def _lead(g):
    return max(g.coords, key=degrevlex_key)


@pytest.fixture(scope="module", params=sorted(PINS))
def built(request):
    variables, relations = PINS[request.param]
    return request.param, build_algebra(AlgebraSpec(variables, relations))


def test_groebner_basis_and_staircase_are_pinned(built):
    name, A = built
    printed = [polynomial_str(g, A.names) for g in A.groebner]
    assert (printed, A.monomial_strings()) == EXPECTED[name]


def test_every_relation_and_every_s_pair_reduces_to_zero(built):
    _, A = built
    for r in A.spec.relations:
        assert not A.element_from_poly(parse_polynomial(r, A.names)), r
    for i, f in enumerate(A.groebner):
        for g in A.groebner[:i]:
            mf, mg = _lead(f), _lead(g)
            lcm = mono_lcm(mf, mg)
            s = (Polynomial(A.nvars, {mono_div(lcm, mf): Fraction(1, f.coords[mf])}) * f
                 - Polynomial(A.nvars, {mono_div(lcm, mg): Fraction(1, g.coords[mg])}) * g)
            assert not A.element_from_poly(s), (f.coords, g.coords)


def test_the_basis_is_reduced(built):
    _, A = built
    leads = [_lead(g) for g in A.groebner]
    assert leads == sorted(leads, key=degrevlex_key)
    for g, lm in zip(A.groebner, leads):
        assert g.coords[lm] == 1
        for other in leads:
            assert other == lm or not any(mono_divides(other, m) for m in g.coords)


def test_construction_computes_each_leading_term_once(monkeypatch):
    """Each relation is made monic once, which is the one leading-term
    computation; no S-pair of two monomials is formed, and the relation rows of
    Omega^p are read from A's pair table.  When every reduction recomputed the
    leading terms, the build computed 2,736 and Omega^1 and Omega^2 720 more."""
    calls = []
    leading = Polynomial.leading
    monkeypatch.setattr(poly.Polynomial, "leading", lambda self: calls.append(1) or leading(self))
    A = build_algebra(AlgebraSpec(("x", "y", "z"), _M4_XYZ))
    assert len(calls) == len(_M4_XYZ) == 15
    calls.clear()
    assert (omega_module(A, 1).dimension, omega_module(A, 2).dimension) == (45, 36)
    assert calls == []


def test_truncated_extensions_carry_no_groebner_basis(monkeypatch):
    """A[s]/s^N, and an extension of one, store no Groebner basis and compute
    no leading term: their reduce_mono is the closed form, and their staircase
    is the one the generic construction gives."""
    A = build_algebra(AlgebraSpec(*PINS["rational-b"]))
    calls = []
    leading = Polynomial.leading
    monkeypatch.setattr(poly.Polynomial, "leading", lambda self: calls.append(1) or leading(self))
    inner = truncated_extension(A, "sigma", 3)
    outer = truncated_extension(inner, "eps", 2)
    assert calls == []
    monkeypatch.undo()
    generic = build_algebra(AlgebraSpec(("x", "y", "sigma", "eps"),
                                        PINS["rational-b"][1] + ("sigma^3", "eps^2"), "eps"))
    assert inner.groebner == outer.groebner == ()
    assert outer.basis == generic.basis
