from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from milnork.algebra import (
    AlgebraSpec,
    build_algebra,
    derived_algebra,
    invert_unit,
    quotient_mod_variable,
    sigma_layers,
    transport,
    truncated_extension,
)
from milnork.errors import (
    AlgebraMismatch,
    InvalidSpec,
    NameCollision,
    NotArtinian,
    NotAUnit,
    NotLocal,
    ParseError,
)
from milnork.expr import parse_polynomial
from milnork.poly import power


def alg(variables, relations, **kw):
    return build_algebra(AlgebraSpec(tuple(variables), tuple(relations), **kw))


@pytest.fixture(scope="module")
def t3():
    return alg(["t"], ["t^3"])


@pytest.fixture(scope="module")
def xy():
    return alg(["x", "y"], ["x^2", "x*y", "y^2"])


def test_staircase_examples(t3, xy):
    assert t3.dimension == 3
    assert t3.monomial_strings() == ["1", "t", "t^2"]
    q = alg([], [])
    assert q.dimension == 1
    assert q.monomial_strings() == ["1"]
    assert xy.dimension == 3
    assert set(xy.monomial_strings()) == {"1", "x", "y"}
    assert xy.monomial_strings()[0] == "1"


def test_redundant_relation_reduces():
    a = alg(["x", "y"], ["x^2", "x*y", "y^2", "y^3"])
    assert a.dimension == 3


def test_normal_form_examples(t3, xy):
    assert str(t3.element("t^3 + t + 1")) == "t + 1"
    assert t3.element("(1+t)*(1-t)") == t3.element("1 - t^2")
    assert xy.element("x*y + x") == xy.element("x")
    with pytest.raises(ParseError):
        t3.element("u + 1")


def test_element_evaluates_in_the_algebra(t3):
    # expanding over Q[t] before reducing would build a 3001-term polynomial
    assert t3.element("(1+t)^3000") == t3.element("1 + 3000*t + 4498500*t^2")


def test_normal_form_idempotent_and_linear(t3):
    e = t3.element("t^5 + 2*t^2 + 1")
    assert t3.element(str(e)) == e
    a = parse_polynomial("t^4 + t", t3.names)
    b = parse_polynomial("t^3 - 1", t3.names)
    lhs = t3.element_from_poly(a * 2 + b * 3)
    rhs = t3.element_from_poly(a) * 2 + t3.element_from_poly(b) * 3
    assert lhs == rhs


def test_unit_detection(t3, xy):
    assert t3.element("1+t").augmentation()
    assert not t3.element("t").augmentation()
    assert xy.element("2 + x + y").augmentation()


def test_invert_unit(t3):
    u = t3.element("1+t")
    assert invert_unit(t3, u) == t3.element("1 - t + t^2")
    assert invert_unit(t3, u) * u == t3.one
    assert invert_unit(t3, t3.one) == t3.one
    s2 = alg(["sigma"], ["sigma^2"])
    assert invert_unit(s2, s2.element("1 - sigma")) == s2.element("1 + sigma")
    with pytest.raises(NotAUnit):
        invert_unit(t3, t3.element("t"))


def test_not_artinian():
    with pytest.raises(NotArtinian):
        alg(["x", "y"], ["x^2"])


def test_not_local():
    with pytest.raises(NotLocal):
        alg(["x"], ["x^2 - x"])
    with pytest.raises(NotLocal):
        alg(["x"], ["x^2 - 1"])


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        AlgebraSpec(("x", "x"), ())
    with pytest.raises(InvalidSpec):
        AlgebraSpec(("x",), (), distinguished="y")
    with pytest.raises(InvalidSpec):
        AlgebraSpec(("sigma", "x"), (), distinguished="sigma")


def test_spec_is_equal_and_hashed_by_value(t3):
    """A spec is the key of the "derived" memo: a list and a tuple of the same
    names are one key, and so one derived algebra."""
    a, b = AlgebraSpec(("t",), ["t^3"]), AlgebraSpec(["t"], ("t^3",))
    assert a == b and hash(a) == hash(b)
    assert (derived_algebra(t3, ("t", "s"), ["t^3", "s^2"])
            is derived_algebra(t3, ["t", "s"], ("t^3", "s^2")))


def test_truncated_extension(t3):
    ext = truncated_extension(t3, "sigma", 2)
    assert ext.dimension == t3.dimension * 2
    assert ext.spec.distinguished == "sigma"
    q = alg([], [])
    e3 = truncated_extension(q, "sigma", 3)
    assert e3.dimension == 3
    t2 = alg(["t"], ["t^2"])
    e = truncated_extension(t2, "sigma", 2)
    assert set(e.monomial_strings()) == {"1", "t", "sigma", "t*sigma"}
    degenerate = truncated_extension(t3, "sigma", 1)
    assert degenerate.dimension == t3.dimension
    with pytest.raises(NameCollision):
        truncated_extension(t3, "t", 2)


def test_extension_maps(t3):
    b3 = truncated_extension(t3, "sigma", 3)
    b2 = truncated_extension(t3, "sigma", 2)
    e = t3.element("1 + 2*t")
    lifted = transport(e, b3)
    assert lifted == b3.element("1 + 2*t")
    assert transport(lifted, t3) == e
    big = b3.element("1 + t*sigma + sigma^2")
    small = transport(big, b2)
    assert small == b2.element("1 + t*sigma")
    layers = sigma_layers(big)
    assert [str(x) for x in layers] == ["1", "t", "1"]


def test_transport_mismatch(t3, xy):
    with pytest.raises(AlgebraMismatch):
        transport(t3.element("t"), xy)


def test_quotient_mod_variable():
    b = alg(["t", "sigma"], ["t^2", "sigma^3", "t*sigma"], distinguished="sigma")
    assert b.dimension == 4
    a = quotient_mod_variable(b, "sigma")
    assert a.dimension == 2
    assert a.monomial_strings() == ["1", "t"]


_T3 = build_algebra(AlgebraSpec(("t",), ("t^3",)))

_coords = st.lists(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]),
    min_size=3, max_size=3)


def _mk(cs):
    from milnork.algebra import AlgebraElement

    return AlgebraElement(_T3, {i: c for i, c in enumerate(cs) if c})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_coords, _coords, _coords)
def test_ring_axioms(ca, cb, cc):
    a, b, c = _mk(ca), _mk(cb), _mk(cc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 3, -1, Fraction(1, 2)]),
       st.sampled_from([0, 1, -2, Fraction(3, 2)]),
       st.sampled_from([0, 1, 2]))
def test_invert_involution(aug, c1, c2):
    u = _T3.element(aug) + _T3.element("t") * c1 + _T3.element("t^2") * c2
    assert invert_unit(_T3, invert_unit(_T3, u)) == u


def test_power_by_repeated_squaring(t3):
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    assert power(3, 0, 1, mul) == 1 and calls == []
    assert power(3, 1, 1, mul) == 3 and calls == [(1, 3)]
    calls.clear()
    # 5 = 0b101: two squarings and two products
    assert power(3, 5, 1, mul) == 243 and len(calls) == 4
    u = t3.element("1 + t")
    assert u ** 0 == t3.one and u ** 1 == u
    assert u ** 5 == u * u * u * u * u == t3.element("1 + 5*t + 10*t^2")
    assert u ** -2 == invert_unit(t3, u) * invert_unit(t3, u)
    p = parse_polynomial("1 + t", ("t",))
    assert p ** 5 == parse_polynomial("(1 + t)*(1 + t)*(1 + t)*(1 + t)*(1 + t)", ("t",))
