"""Exact sparse linear algebra over Q.

Rows are dicts mapping column index to a nonzero rational.  Pivot columns of
a reduced echelon form are intrinsic to the row span, so the incremental
insertion below yields the same pivots as column-major elimination.

Every stored rational takes one form, given by `rational`: an `int` when whole,
a `Fraction` only when it is not, and never a float.  Nearly every coordinate
the engine meets is whole, and int arithmetic is several times cheaper than
Fraction arithmetic.  With int operands `a / b` is a float, so every division
goes through `Fraction(a, b)` and then `rational`.

`add_to` is the one sparse-accumulate kernel: every sparse vector in the
engine (polynomial terms, algebra coordinates, form coordinates, Laurent
coefficients, realization vectors, echelon rows) is summed through it.
`Vector` is the one copy of the value arithmetic, + - == and scalar
multiples, that polynomials, algebra elements, differential forms and
Laurent polynomials share.
"""

import re
import sys
from fractions import Fraction

from .errors import quote

# the expression grammar's rational literal: the one number grammar of every input
_LITERAL = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")


def rational(value):
    """The exact rational `value` as an int when it is whole, else as a
    Fraction.  Accepts ints, Fractions and literals such as ` -2/5 `; any
    other string, such as `1.5`, `1_0`, `1/0` or the nine characters
    `1e9000000`, raises ValueError.  Any other type raises TypeError: a
    float, since its binary expansion is not the number it was meant as,
    and a bool or a Decimal, which no input passes."""
    if value.__class__ is int:
        return value
    if isinstance(value, str):
        literal = _LITERAL.fullmatch(value)
        if literal is None:
            raise ValueError(f"{quote(value)} is not a rational literal such as 3 or -2/5")
        try:
            num, den = int(literal[1]), int(literal[2] or 1)
        except ValueError:  # a part longer than the interpreter converts
            digits = max(len(literal[1].lstrip("+-")), len(literal[2] or ""))
            raise ValueError(f"a number literal of {digits} digits is over the limit of "
                             f"{sys.get_int_max_str_digits()} digits") from None
        if not den:
            raise ValueError(f"{quote(value)} has a zero denominator")
        value = Fraction(num, den)
    elif value.__class__ is not Fraction:
        raise TypeError(f"{quote(value)} is a {type(value).__name__}; exact arithmetic needs "
                        "an int, a Fraction or a rational string")
    return value.numerator if value.denominator == 1 else value


def printable(q, error, what):
    """q, an int or a Fraction, unless its numerator or denominator has more
    digits than the interpreter prints: then `error`, which names `what`."""
    big, limit = max(abs(q.numerator), q.denominator), sys.get_int_max_str_digits()
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise error(f"{what} has more than the interpreter's limit of {limit} digits")
    return q


def printable_power(q, k, error, what):
    """Check q ** k as `printable` checks a number, building no power past the
    limit.  The larger of its numerator and denominator is m ** k, for m the
    larger of q's; when m >= 2, m ** j has more than j * (m.bit_length() - 1)
    bits, so it is past the limit once that passes 4 * limit bits (2^4 > 10),
    and no higher power of m than the first such j is built to find it so."""
    big = max(abs(q.numerator), q.denominator)
    if big > 1:
        j = 4 * sys.get_int_max_str_digits() // (big.bit_length() - 1) + 1
        printable(big ** min(k, j), error, what)


def whole(value):
    """`rational(value)` when it is whole; `1/2` or `1_0`, say, raise ValueError."""
    q = rational(value)
    if q.__class__ is not int:
        raise ValueError(f"{quote(value)} is not a whole number")
    return q


def add_to(vec, key, value):
    """vec[key] += value, storing no zeros: an entry that cancels is dropped,
    and a whole Fraction is stored as an int."""
    old = vec.get(key)
    if old is not None:
        value = old + value
        if not value:
            del vec[key]
            return
    elif not value:
        return
    if value.__class__ is Fraction and value.denominator == 1:
        value = value.numerator
    vec[key] = value


class Vector:
    """A value that is a sparse coordinate vector over one space, never
    changed once built: a polynomial over its number of variables, an algebra
    element over its algebra, a form over its module, a Laurent polynomial
    over its algebra.  A subclass names the slot that holds its space, as in
    `class AlgebraElement(Vector, space="algebra")`, and takes (space, coords)
    in __init__.  `_check(other)` returns `other` as a value of the same
    space or raises; a subclass that coerces or guards overrides it.
    `scale` needs rational coordinates, which a Laurent polynomial, whose
    coordinates are elements, does not have."""

    __slots__ = ()

    def __init_subclass__(cls, space):
        cls._space = vars(cls)[space]  # the subclass's own slot, read under one name

    def __bool__(self):
        return bool(self.coords)

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and other._space == self._space
                and self.coords == other.coords)

    def _check(self, other):
        return other

    def __add__(self, other):
        other = self._check(other)
        res = dict(self.coords)
        for i, c in other.coords.items():
            add_to(res, i, c)
        return self.__class__(self._space, res)

    __radd__ = __add__

    def __neg__(self):
        return self.__class__(self._space, {i: -c for i, c in self.coords.items()})

    def __sub__(self, other):
        return self + -self._check(other)

    def scale(self, q):
        """q * self for a rational q; a factor 1 does no work, as values never change."""
        q = rational(q)
        if q == 1:
            return self
        return self.__class__(self._space, {i: rational(c * q) for i, c in self.coords.items()}
                              if q else {})


class RowSpace:
    """Incrementally maintained reduced row echelon form, of `rows` to start."""

    def __init__(self, rows=()):
        self.pivots = {}  # pivot column -> fully reduced monic row
        for row in rows:
            self.insert(row)

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        """Return the residual of `row` modulo the current span (row unchanged)."""
        res = dict(row)
        for col in sorted(res):
            if col in self.pivots:  # a pivot row is zero at every other pivot column,
                c = res[col]  # so res[col] is row[col] still
                for pcol, pval in self.pivots[col].items():
                    add_to(res, pcol, -c * pval)
        return res

    def insert(self, row):
        """Add `row` to the span; return its pivot column or None if dependent."""
        res = self.reduce(row)
        if not res:
            return None
        lead = min(res)
        inv = rational(Fraction(1, res[lead]))
        res = {c: rational(v * inv) for c, v in res.items()}
        for prow in self.pivots.values():
            c = prow.get(lead)
            if c:
                for col, val in res.items():
                    add_to(prow, col, -c * val)
        self.pivots[lead] = res
        return lead


def augmented_space(vectors, ncols):
    """The row space of (v_i | e_i): each vector, with the unit vector e_i in
    the columns from `ncols` on.

    Its pivot rows at or past `ncols` are (0 | x) for a basis of the
    relations sum x_i v_i = 0.  Reducing (w | 0) leaves (0 | -x) with
    sum x_i v_i = w, or a column below `ncols` when w is not in the span.
    """
    return RowSpace({**v, ncols + i: 1} for i, v in enumerate(vectors))
