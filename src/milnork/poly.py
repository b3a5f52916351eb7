"""Sparse multivariate polynomials over Q under a degrevlex order.

Monomials are exponent tuples; the variable order is fixed by whoever owns
the polynomial (an Algebra or a parser call).  Coefficients are exact
rationals in the engine's one representation (see `linalg.rational`): an int
when whole, a Fraction otherwise, never a float.
"""

import operator
from fractions import Fraction

from .linalg import add_to, rational


def power(base, k, one, mul=operator.mul):
    """base^k for an integer k >= 0 by repeated squaring, seeded with its first
    factor; `one()` builds the value only for k = 0."""
    if k < 0:
        raise ValueError("negative power")
    result = None
    while k:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return one() if result is None else result


def degrevlex_key(mono):
    # total degree first; ties broken so that the monomial with the larger
    # exponent on a later variable is smaller
    return (sum(mono), tuple(-e for e in reversed(mono)))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None, normalize=True):
        self.nvars = nvars
        if not normalize:
            self.terms = terms if terms is not None else {}
            return
        self.terms = {}
        for m, c in (terms or {}).items():
            add_to(self.terms, m, rational(c))

    @classmethod
    def constant(cls, nvars, c):
        c = rational(c)
        return cls(nvars, {(0,) * nvars: c} if c else {}, normalize=False)

    @classmethod
    def variable(cls, nvars, i):
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: 1}, normalize=False)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __add__(self, other):
        res = dict(self.terms)
        for m, c in other.terms.items():
            add_to(res, m, c)
        return Polynomial(self.nvars, res, normalize=False)

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()}, normalize=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            q = rational(other)
            return Polynomial(self.nvars, {m: rational(c * q) for m, c in self.terms.items()},
                              normalize=False)
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                add_to(res, mono_mul(m1, m2), c1 * c2)
        return Polynomial(self.nvars, res, normalize=False)

    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, lambda: Polynomial.constant(self.nvars, 1))

    def leading(self):
        m = max(self.terms, key=degrevlex_key)
        return m, self.terms[m]

    def diff(self, i):
        res = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                dm = tuple(x - 1 if j == i else x for j, x in enumerate(m))
                add_to(res, dm, c * e)
        return Polynomial(self.nvars, res, normalize=False)

    def eliminate(self, i):
        """Set variable i to zero and drop its slot from every monomial."""
        res = {}
        for m, c in self.terms.items():
            if m[i]:
                continue
            res[m[:i] + m[i + 1:]] = c
        return Polynomial(self.nvars - 1, res, normalize=False)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: degrevlex_key(t[0]), reverse=True)
