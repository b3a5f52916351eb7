from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from milnork import algebra, laurent, linalg, poly
from milnork.algebra import AlgebraSpec, build_algebra
from milnork.errors import AlgebraMismatch, NonUnitEntry, ParseError, PositionInvalid
from milnork.laurent import (
    EXPANSION_BUDGET,
    LaurentEntry,
    LaurentPolynomial,
    Symbol,
    SymbolCombination,
    entries_sum_is,
    entries_value_equal,
    entry_is_one,
)

T2 = build_algebra(AlgebraSpec(("t",), ("t^2",)))


def lp(coeffs):
    return LaurentPolynomial(T2, {d: T2.element(c) for d, c in coeffs.items()})


def test_basic_arithmetic():
    p = lp({0: "1", 1: "t"})
    q = lp({2: "2"})
    assert (p + q).coords[2] == T2.element("2")
    prod = p.mul(q)
    assert prod.coords[2] == T2.element("2")
    assert prod.coords[3] == T2.element("2*t")
    assert p.ord() == 0 and q.ord() == 2
    assert (p - p).coords == {}


def test_power_and_shift():
    s = LaurentPolynomial.sigma(T2)
    assert s.power(3).coords == {3: T2.one}
    one_minus = LaurentPolynomial.constant(T2, 1) - s
    sq = one_minus.power(2)
    assert sq.coords[1] == T2.element(-2)


def test_truncation_compatible_with_product():
    p = lp({0: "1+t", 1: "2", 3: "t"})
    q = lp({0: "1", 2: "3+t"})
    direct = p.mul(q, order=3)
    full = p.mul(q).truncate(3)
    assert direct.coords == full.coords


def _product_loop(p, q, order=None):
    """The coefficients of p * q, summed pair by pair."""
    res = {}
    for d1, c1 in p.coords.items():
        for d2, c2 in q.coords.items():
            if order is None or d1 + d2 < order:
                res[d1 + d2] = res.get(d1 + d2, T2.element(0)) + c1 * c2
    return LaurentPolynomial(T2, res).coords


def test_a_factor_one_is_the_other_side():
    """A constant-1 side gives the other side, truncated when an order is
    given, and that equals the pair-by-pair product."""
    one = LaurentPolynomial.constant(T2, 1)
    p = lp({0: "2", 1: "1+t", 2: "2", 4: "t", 6: "1"})
    for a, b in ((p, one), (one, p), (one, one)):
        other = b if a is one else a
        assert a.mul(b).coords == _product_loop(a, b)
        for order in (0, 1, 3, 5, 7, 10):
            assert a.mul(b, order).coords == _product_loop(a, b, order)
            assert a.mul(b, order).coords == other.truncate(order).coords
    assert p.mul(one, 5).maxdeg() == 4 and one.mul(p, 1).coords == {0: T2.element(2)}


def test_entry_exponents_must_be_integers():
    u = lp({0: "1", 1: "t"})
    for exp in (1.5, Fraction(3, 2), "3"):
        with pytest.raises(TypeError):
            LaurentEntry(T2, [(u, exp)])
    assert LaurentEntry(T2, [(u, 2)]).atoms == ((u, 2),)


_coeff_pool = st.sampled_from(["0", "1", "-1", "t", "1+t", "2"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_coeff_pool, min_size=3, max_size=3),
       st.lists(_coeff_pool, min_size=3, max_size=3),
       st.integers(1, 4))
def test_truncated_product_property(cs1, cs2, order):
    p = lp({d: c for d, c in enumerate(cs1)})
    q = lp({d: c for d, c in enumerate(cs2)})
    assert p.mul(q, order=order).coords == p.mul(q).truncate(order).coords
    assert p.mul(q).coords == q.mul(p).coords


def test_entry_unit_guard():
    s = LaurentPolynomial.sigma(T2)
    LaurentEntry(T2, [(s, 1)])  # sigma itself is fine
    with pytest.raises(NonUnitEntry):
        LaurentEntry(T2, [(lp({1: "t"}), 1)])  # lowest coefficient t is not a unit
    with pytest.raises(NonUnitEntry):
        LaurentEntry(T2, [(lp({}), 1)])


def test_cross_multiplication_equality():
    one = LaurentPolynomial.constant(T2, 1)
    s = LaurentPolynomial.sigma(T2)
    u = one + lp({2: "1"})
    # (1-s)(1+s^2) as two atoms equals the expanded polynomial as one atom
    e1 = LaurentEntry(T2, [(one - s, 1), (u, 1)])
    expanded = (one - s).mul(u)
    e2 = LaurentEntry(T2, [(expanded, 1)])
    assert entries_value_equal(e1, e2)
    # inverses: u * u^(-1) = 1
    e3 = LaurentEntry(T2, [(u, 1), (u, -1)])
    assert entry_is_one(e3)
    assert not entries_value_equal(e1, LaurentEntry(T2, [(one, 1)]))


def test_comparison_cancels_common_atoms_before_expanding():
    one = LaurentPolynomial.constant(T2, 1)
    s = LaurentPolynomial.sigma(T2)
    wide = one + s
    u = lp({0: "1+t"})
    # (1+s)^3000 occurs on both sides: nothing of width 3000 is expanded
    e1 = LaurentEntry(T2, [(wide, 3000), (u, 1)])
    e2 = LaurentEntry(T2, [(u, 1), (wide, 1000), (wide, 2000)])
    assert entries_value_equal(e1, e2)
    assert entry_is_one(LaurentEntry(T2, [(wide, 3000), (wide, -3000)]))
    with pytest.raises(PositionInvalid, match="spans 3000 sigma-degrees"):
        entries_value_equal(e1, LaurentEntry(T2, [(u, 1)]))
    with pytest.raises(PositionInvalid):
        entries_sum_is(e1, e2, 1)
    # a high power of a constant spans no sigma-degree but is still bounded,
    # truncated or not
    two = LaurentEntry(T2, [(lp({0: "2"}), 10**9)])
    for order in (None, 3):
        with pytest.raises(PositionInvalid, match="total exponent 1000000000"):
            entry_is_one(two, order)
    # the budget itself is admitted
    assert not entry_is_one(LaurentEntry(T2, [(wide, EXPANSION_BUDGET)]))
    # mod sigma^3, s is no unit: s(1+s^2) = s*1 although 1+s^2 != 1
    u2 = one + lp({2: "1"})
    assert entries_value_equal(LaurentEntry(T2, [(s, 1), (u2, 1)]),
                               LaurentEntry(T2, [(s, 1), (one, 1)]), order=3)
    assert not entries_value_equal(LaurentEntry(T2, [(u2, 1)]),
                                   LaurentEntry(T2, [(one, 1)]), order=3)


def test_sum_side_conditions():
    one = LaurentPolynomial.constant(T2, 1)
    s = LaurentPolynomial.sigma(T2)
    e_s = LaurentEntry(T2, [(s, 1)])
    e_oms = LaurentEntry(T2, [(one - s, 1)])
    assert entries_sum_is(e_s, e_oms, 1)
    assert entries_sum_is(e_oms, e_s, 1)
    e_neg = LaurentEntry(T2, [(lp({1: "-1"}), 1)])
    assert entries_sum_is(e_s, e_neg, 0)
    assert not entries_sum_is(e_s, e_s, 1)


def test_state_canonicalization():
    one = LaurentPolynomial.constant(T2, 1)
    s = LaurentPolynomial.sigma(T2)
    sym = Symbol((LaurentEntry(T2, [(one - s, 1)]), LaurentEntry(T2, [(s, 1)])))
    state = SymbolCombination(T2, 2, [(1, sym), (2, sym), (-3, sym)])
    assert not state
    state2 = SymbolCombination(T2, 2, [(Fraction(1, 2), sym), (Fraction(1, 2), sym)])
    assert len(state2.terms) == 1 and state2.terms[0][0] == 1


def test_combination_equality_compares_coefficients_as_numbers():
    """The key holds each coefficient itself, in rational's one form."""
    sym = Symbol((LaurentEntry(T2, [(LaurentPolynomial.sigma(T2), 1)]),) * 2)
    halves = SymbolCombination(T2, 2, [("1/2", sym), (Fraction(1, 2), sym)])
    assert halves.key() == ((1, sym.key()),) and halves.terms[0][0].__class__ is int
    assert halves == SymbolCombination(T2, 2, [(Fraction(2, 2), sym)])
    assert halves != SymbolCombination(T2, 2, [("2/3", sym)])


def test_a_number_the_interpreter_cannot_print_is_refused_in_a_state():
    """A checked state holds only numbers whose decimal form the interpreter
    prints: an exponent or a coefficient part of 4,301 digits is refused."""
    s = LaurentPolynomial.sigma(T2)
    longest = 10 ** 4300 - 1  # 4,300 digits, the interpreter's default limit
    assert LaurentEntry(T2, [(s, -longest)]).atoms == ((s, -longest),)
    sym = Symbol((LaurentEntry(T2, [(s, 1)]),) * 2)
    ((coeff, _),) = SymbolCombination(T2, 2, [(Fraction(1, longest), sym)]).terms
    assert coeff.denominator == longest
    # an over-budget detail quotes its sums bounded, and names one past the limit
    two = lp({0: "2"})
    with pytest.raises(PositionInvalid, match=r"total exponent 10{59}… \(71 characters\),"):
        entry_is_one(LaurentEntry(T2, [(two, 10 ** 70)]))
    with pytest.raises(PositionInvalid, match="total exponent a number past the interpreter's "
                                              "digit limit, over the budget of 128"):
        entry_is_one(LaurentEntry(T2, [(two, longest), (two + s, longest)]))
    with pytest.raises(PositionInvalid, match="an atom exponent has more than the "
                                              "interpreter's limit of 4300 digits"):
        LaurentEntry(T2, [(s, -longest - 1)])
    for coeff in (longest + 1, Fraction(1, longest + 1), Fraction(-longest - 1, 7)):
        with pytest.raises(PositionInvalid, match="a coefficient has more than"):
            SymbolCombination(T2, 2, [(coeff, sym)])
    # the merged sum is checked, not each term: two of 4,300 digits make 4,301
    with pytest.raises(PositionInvalid, match="a coefficient has more than"):
        SymbolCombination(T2, 2, [(longest, sym), (longest, sym)])
    assert SymbolCombination(T2, 2, [(longest, sym), (1, sym), (-1, sym)]).terms == (
        (longest, sym),)


def test_symbol_and_entry_keys_are_computed_once():
    """A symbol and an entry never change, so each computes its key once: a
    second call returns the same object, equal to the key of a rebuilt value."""
    s = LaurentPolynomial.sigma(T2)
    atoms = [[(lp({0: "1", 1: "t"}), 2), (s, -1)], [(lp({0: "2", 2: "t"}), 1)]]
    sym = Symbol.from_atoms(T2, atoms)
    assert sym.key() is sym.key()
    for entry in sym.entries:
        assert entry.key() is entry.key()
    rebuilt = Symbol.from_atoms(T2, atoms)
    assert rebuilt.key() == sym.key()
    assert [e.key() for e in rebuilt.entries] == [e.key() for e in sym.entries]
    swapped = sym.replace(0, sym.entries[1])
    assert swapped.key() == Symbol((rebuilt.entries[1], rebuilt.entries[1])).key() != sym.key()


def test_symbols_and_combinations_stay_in_one_algebra():
    e2 = LaurentEntry(T2, [(LaurentPolynomial.sigma(T2), 1)])
    e3 = LaurentEntry(T3, [(LaurentPolynomial.sigma(T3), 1)])
    with pytest.raises(AlgebraMismatch, match="symbol entries over different algebras"):
        Symbol((e2, e3))
    terms = [(1, Symbol((e2, e2)))]
    merged = SymbolCombination(T2, 2, terms + terms)
    assert merged.key() == SymbolCombination(T2, 2, [(2, Symbol((e2, e2)))]).key()


def test_a_laurent_product_stays_in_one_algebra():
    """The convolution multiplies elements, so a side of another algebra is
    refused, a constant 1 included."""
    for a, b in ((LaurentPolynomial.constant(T2, 1), LaurentPolynomial.sigma(T3)),
                 (LaurentPolynomial.sigma(T2), LaurentPolynomial.constant(T3, 1))):
        for order in (None, 3):
            with pytest.raises(AlgebraMismatch):
                a.mul(b, order)


def test_equality_is_by_value_within_one_algebra():
    p = lp({0: "1+t", 2: "-1/2"})
    assert p == lp({0: "t + 1", 2: "-1/2"}) == LaurentPolynomial.from_string(T2, str(p))
    assert p != lp({0: "1+t"}) and p != p.coords and lp({}) == lp({1: "0"})
    assert LaurentPolynomial.sigma(T2) != LaurentPolynomial.sigma(T3)
    assert LaurentPolynomial.constant(T2, 2) != LaurentPolynomial.constant(T3, 2)


def test_string_round_trip():
    p = lp({0: "1+t", 2: "-1/2"})
    back = LaurentPolynomial.from_string(T2, str(p))
    assert back.coords == p.coords


T3 = build_algebra(AlgebraSpec(("t",), ("t^3",)))


@pytest.mark.parametrize("text, value", [
    ("(1+t)^100000", {0: "1 + 100000*t + 4999950000*t^2"}),
    ("sigma^200", {200: "1"}),  # span 0: nothing to expand
    ("(1+t+sigma)^160", None),
    ("(1+t+sigma)^300", None),
    ("((1+sigma)^12)^12", None),
])
def test_from_string_work_is_bounded(monkeypatch, text, value):
    """A short string costs a bounded number of sparse accumulations, each
    counted through add_to; a product or power over the budget is refused."""
    want = value and {d: T3.element(c) for d, c in value.items()}
    calls = []

    def counted(vec, key, c):
        calls.append(None)
        assert len(calls) < 5000, "parsing expanded the expression"
        linalg.add_to(vec, key, c)

    for module in (algebra, laurent, poly):
        monkeypatch.setattr(module, "add_to", counted)
    if value is None:
        with pytest.raises(ParseError, match=f"over the budget of {EXPANSION_BUDGET}"):
            LaurentPolynomial.from_string(T3, text)
    else:
        assert LaurentPolynomial.from_string(T3, text).coords == want


def test_from_string_charges_one_budget_per_string(monkeypatch):
    """Every product and power of one string is charged against one budget:
    four powers, each within it alone, are refused together, and nothing is
    multiplied after the charge that spends it."""
    one = "(1+t+sigma)^128"
    products = []
    real_mul = LaurentPolynomial.mul

    def counted(self, other, order=None):
        products.append(None)
        return real_mul(self, other, order)

    monkeypatch.setattr(LaurentPolynomial, "mul", counted)
    LaurentPolynomial.from_string(T3, one)
    single = len(products)
    products.clear()
    with pytest.raises(ParseError, match=f"spans 256 .* over the budget of {EXPANSION_BUDGET}"):
        LaurentPolynomial.from_string(T3, "+".join([one] * 4))
    assert len(products) == single  # the second power is refused unexpanded
    half = "(1+sigma)^64"
    assert LaurentPolynomial.from_string(T3, f"{half} + {half}").coords[64] == T3.element(2)
    for text in (f"{half} * {half}", f"{half} + (1+sigma)^65", f"({half})^2"):
        with pytest.raises(ParseError, match=f"over the budget of {EXPANSION_BUDGET}"):
            LaurentPolynomial.from_string(T3, text)


def test_from_string_refuses_a_power_past_the_digit_limit_unbuilt(monkeypatch):
    """A span-0 power is charged nothing, but its lowest coefficient's
    augmentation a goes to a^k: one past the digit limit is refused before the
    power is built, with the message of a finished value past it."""
    assert (LaurentPolynomial.from_string(T3, "(3*sigma)^9000").coords
            == {9000: T3.element(3 ** 9000)})
    assert LaurentPolynomial.from_string(T3, "(t*sigma)^100000000").coords == {}
    assert LaurentPolynomial.from_string(T3, "(-sigma)^100000000").coords == {10 ** 8: T3.one}
    powers = []
    real = LaurentPolynomial.power
    monkeypatch.setattr(LaurentPolynomial, "power",
                        lambda p, k, order=None: powers.append(k) or real(p, k, order))
    for text in ("3^100000000", "(3*sigma)^9100", "(1/3*sigma^2 + t*sigma^2)^100000000"):
        with pytest.raises(ParseError) as err:
            LaurentPolynomial.from_string(T3, text)
        assert str(err.value) == (f"a number in {text!r} has more than the interpreter's limit "
                                  "of 4300 digits")
    assert powers == [2, 2]  # the two sigma^2 of the last string, not the power over them
    # the budget is charged first, as before: a wide power is refused by its span
    with pytest.raises(ParseError, match=f"over the budget of {EXPANSION_BUDGET}"):
        LaurentPolynomial.from_string(T3, "(3 + sigma)^100000000")


def test_power_under_an_order_truncates_every_product():
    one_plus = lp({0: "1", 1: "1"})
    assert one_plus.power(5, 3).coords == {0: T2.one, 1: T2.element(5), 2: T2.element(10)}
    assert one_plus.power(0, 3).coords == {0: T2.one}
    # order 1 keeps only the constant term of each partial product
    assert lp({0: "1 + t", 2: "1"}).power(5, 1).coords == {0: T2.element("1 + 5*t")}
    # seeded with the first factor, k = 1 and a single-atom side multiply
    # nothing and still come back truncated; an empty side is the constant 1
    wide = lp({0: "1", 3: "t"})
    assert wide.power(1, 2).coords == {0: T2.one}
    assert [side.coords for side in LaurentEntry(T2, [(wide, 1)]).split(2)] == [{0: T2.one}] * 2
    assert [side.coords for side in LaurentEntry(T2, [(wide, -1)]).split()] == [{0: T2.one},
                                                                                 wide.coords]
