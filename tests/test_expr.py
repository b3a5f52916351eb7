from fractions import Fraction

import pytest

from milnork.errors import ParseError
from milnork.expr import parse_polynomial, polynomial_str


def p(text, names=("x", "y")):
    return parse_polynomial(text, names)


def test_rational_literals():
    q = p("3")
    assert q.coords == {(0, 0): Fraction(3)}
    q = p("-2/5")
    assert q.coords == {(0, 0): Fraction(-2, 5)}
    q = p("2 / 4")
    assert q.coords == {(0, 0): Fraction(1, 2)}


def test_precedence_and_power():
    q = p("1 + 2*x^2")
    assert q.coords == {(0, 0): Fraction(1), (2, 0): Fraction(2)}
    q = p("-x^2")
    assert q.coords == {(2, 0): Fraction(-1)}
    q = p("(1+x)*(1-x)")
    assert q.coords == {(0, 0): Fraction(1), (2, 0): Fraction(-1)}


def test_whitespace_insignificant():
    assert p("x*y + 2").coords == p("  x * y+2 ").coords


def test_unary_minus_nests():
    assert p("--x").coords == p("x").coords
    assert p("1 - -x").coords == p("1 + x").coords


def test_parse_errors():
    with pytest.raises(ParseError):
        p("z + 1")  # unknown variable
    with pytest.raises(ParseError):
        p("x^-1")  # negative exponent
    with pytest.raises(ParseError):
        p("x^(1/2)")
    with pytest.raises(ParseError):
        p("x +")
    with pytest.raises(ParseError):
        p("(x")
    with pytest.raises(ParseError):
        p("x $ y")
    with pytest.raises(ParseError):
        p("")
    with pytest.raises(ParseError):
        p("x/0 + 1/0")


def test_printer_round_trip():
    cases = ["0", "1", "-1", "x", "-x", "2*x^2 - 1/2*y + 3", "x*y", "x^2*y^3 - x"]
    for text in cases:
        q = p(text)
        printed = polynomial_str(q, ("x", "y"))
        assert parse_polynomial(printed, ("x", "y")).coords == q.coords


def test_printer_canonical_examples():
    assert polynomial_str(p("x + 1"), ("x", "y")) == "x + 1"
    assert polynomial_str(p("-x^2 + x"), ("x", "y")) == "-x^2 + x"
    assert polynomial_str(p("0"), ("x", "y")) == "0"


def test_errors_quote_at_most_sixty_characters():
    short = "x + " * 14 + "q"  # 57 characters: quoted whole, as before
    with pytest.raises(ParseError) as err:
        p(short)
    assert str(err.value) == f"unknown variable 'q' in {short!r}"
    long = "x + " * 200 + "q"
    with pytest.raises(ParseError) as err:
        p(long)
    assert str(err.value) == f"unknown variable 'q' in {long[:60]!r}… (801 characters)"
    for text in ("x + " * 30 + "$", "1/0 + " * 20, "x y " * 20, "(" * 101 + "x"):
        with pytest.raises(ParseError) as err:
            p(text)
        assert f"… ({len(text)} characters)" in str(err.value) and len(str(err.value)) < 120
