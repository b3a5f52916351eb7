"""The engine's number representation.

Every stored coefficient is an int when it is whole and a Fraction only when
it is not; a float never enters.  `linalg.rational` is the one normalizer,
and every way a number enters the engine goes through it.
"""

import json
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from milnork.algebra import AlgebraSpec, build_algebra
from milnork.certify import (
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    crosscheck_dlog,
    vanishing_certificate,
)
from milnork.errors import ParseError
from milnork.kahler import dlog, omega_module
from milnork.laurent import LaurentEntry, LaurentPolynomial, Symbol, SymbolCombination
from milnork.linalg import add_to, rational
from milnork.milnor import relative_generators, relative_realize, span_check
from milnork.poly import Polynomial


def alg(variables, relations):
    return build_algebra(AlgebraSpec(tuple(variables), tuple(relations)))


@pytest.fixture(scope="module")
def t3():
    return alg(["t"], ["t^3"])


def test_rational_normalizes():
    assert type(rational(3)) is int
    assert type(rational(Fraction(6, 2))) is int and rational(Fraction(6, 2)) == 3
    assert type(rational("4/2")) is int and rational("-4/2") == -2
    assert rational(Fraction(1, 2)) == Fraction(1, 2)
    assert type(rational("1/2")) is Fraction


def test_rational_reads_only_the_literal_grammar():
    assert rational(" -2/5 ") == Fraction(-2, 5) and rational("+3\n") == 3
    # Fraction(str) reads all of these, 1e9000000 as a nine-million-digit int
    for text in ("1.5", "1_0", "1e9000000", "1 / 2", "", "x"):
        with pytest.raises(ValueError):
            rational(text)


def test_rational_refuses_a_float():
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        rational(2.0)


def test_rational_accepts_exactly_int_fraction_and_str():
    for value in (True, Decimal("1"), 0.5):
        with pytest.raises(TypeError, match="an int, a Fraction or a rational string"):
            rational(value)


def test_rational_names_the_digit_limit_of_a_long_literal():
    limit = sys.get_int_max_str_digits()
    for text in ("9" * (limit + 700), "1/" + "9" * (limit + 700)):
        with pytest.raises(ValueError) as err:
            rational(text)
        assert str(err.value) == (f"a number literal of {limit + 700} digits is over the "
                                  f"limit of {limit} digits")


def test_add_to_stores_a_whole_sum_as_int():
    vec = {0: Fraction(1, 2)}
    add_to(vec, 0, Fraction(1, 2))
    add_to(vec, 1, Fraction(4, 2))
    assert vec == {0: 1, 1: 2}
    assert all(type(v) is int for v in vec.values())


def test_polynomial_refuses_a_float():
    with pytest.raises(TypeError):
        Polynomial.constant(1, 0.5)
    with pytest.raises(TypeError):
        Polynomial.variable(1, 0).scale(0.5)


def test_element_refuses_a_float(t3):
    with pytest.raises(TypeError):
        t3.element(0.5)
    with pytest.raises(TypeError):
        t3.element("1 + t") * 0.5


def test_form_scale_refuses_a_float(t3):
    form = dlog(t3.element("1 + t"))
    with pytest.raises(TypeError):
        form.scale(0.1)
    assert form.scale(Fraction(2, 2)) == form


def test_symbol_combination_refuses_a_float(t3):
    entry = LaurentEntry(t3, [(LaurentPolynomial.constant(t3, 2), 1)])
    sym = Symbol((entry, entry))
    with pytest.raises(TypeError):
        SymbolCombination(t3, 2, [(0.5, sym)])
    (coeff, _), = SymbolCombination(t3, 2, [(Fraction(4, 2), sym)]).terms
    assert type(coeff) is int


def test_scalar_multiples_store_whole_values_as_int(t3):
    half = t3.element("1/2 + 3/2*t")
    form = dlog(t3.element("1 + t")).scale(Fraction(1, 2))
    poly = Polynomial(1, {(0,): Fraction(1, 2), (1,): Fraction(3, 2)})
    for coords in ((half * 2).coords, half.scale(2).coords, form.scale(2).coords,
                   poly.scale(2).coords):
        assert coords and all(type(v) is int for v in coords.values()), coords


def test_certificate_with_a_float_coefficient_is_a_parse_error(t3):
    cert = vanishing_certificate(t3, t3.element("1 + t"), 1)
    doc = json.loads(certificate_to_json(cert))
    doc["start"][0][0] = 0.5
    with pytest.raises(ParseError):
        certificate_from_json(json.dumps(doc))


def _algebras(A):
    found, todo = [], [A]
    while todo:
        B = todo.pop()
        if all(B is not seen for seen in found):
            found.append(B)
            todo.extend(B._memo.get("derived", {}).values())
    return found


def _cached_coordinates(A):
    """(cache, coordinate) for every coordinate in the memo caches of A and
    of the algebras derived from it."""
    for B in _algebras(A):
        for coords in B._mono_nf.values():
            yield from (("_mono_nf", v) for v in coords.values())
        # the product table: rows of (index, coefficient) terms, None where unfilled
        for row in B._products.values():
            yield from (("_products", v) for terms in row if terms for _, v in terms)
        memo = B._memo
        for M in memo.get("omega", {}).values():
            # a module over A[s]/s^N stores no rows; it reduces through A's
            for row in (M._space.pivots.values() if M._space is not None else ()):
                yield from (("pivots", v) for v in row.values())
        for name in ("dlog", "dlog_wedges"):
            for form in memo.get(name, {}).values():
                yield from ((name, v) for v in form.coords.values())
        # the realizers' entry and term tables live on their rings' memos
        for omega, s_part in memo.get("entry_dlog", {}).values():
            yield from (("entry", v) for v in omega.coords.values())
            yield ("entry", s_part)
        for row in memo.get("term", {}).values():
            yield from (("term", v) for v in row.values())


def test_cached_coordinates_are_int_or_proper_fraction():
    m4 = alg(["x", "y"], ["x^4", "x^3*y", "x^2*y^2", "x*y^3", "y^4"])
    cert = vanishing_certificate(m4, m4.element("1/2 + x"), 2)
    assert check_certificate(cert).valid and crosscheck_dlog(cert).all_agree
    cube = alg(["x", "y", "z"], ["x^2", "y^2", "z^2"])
    n = 2
    gens = relative_generators(cube, n, 2)
    assert span_check((relative_realize(g, n) for g in gens), omega_module(cube, 1)).spans

    seen = {}
    for A in (m4, cube):
        for cache, value in _cached_coordinates(A):
            assert type(value) is int or (type(value) is Fraction and value.denominator != 1), (
                cache, value)
            seen.setdefault(cache, set()).add(type(value))
    assert set(seen) == {"_mono_nf", "_products", "pivots", "dlog", "dlog_wedges",
                         "entry", "term"}
    assert set.union(*seen.values()) == {int, Fraction}
