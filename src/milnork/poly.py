"""Sparse multivariate polynomials over Q under a degrevlex order.

Monomials are exponent tuples; the variable order is fixed by whoever owns
the polynomial (an Algebra or a parser call).  Coefficients are exact
rationals in the engine's one representation (see `linalg.rational`): an int
when whole, a Fraction otherwise, never a float.  A Polynomial takes its
coordinates as built; + - == and scalar multiples come from `linalg.Vector`.
"""

import operator
from .linalg import Vector, add_to, rational


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


class Polynomial(Vector, space="nvars"):
    __slots__ = ("nvars", "coords")

    def __init__(self, nvars, coords):
        self.nvars = nvars
        self.coords = coords

    @classmethod
    def constant(cls, nvars, c):
        c = rational(c)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars, i):
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: 1})

    def __mul__(self, other):
        res = {}
        for m1, c1 in self.coords.items():
            for m2, c2 in other.coords.items():
                add_to(res, mono_mul(m1, m2), c1 * c2)
        return Polynomial(self.nvars, res)

    def __pow__(self, k):
        return power(self, k, lambda: Polynomial.constant(self.nvars, 1))

    def leading(self):
        m = max(self.coords, key=degrevlex_key)
        return m, self.coords[m]

    def diff(self, i):
        res = {}
        for m, c in self.coords.items():
            e = m[i]
            if e:
                dm = tuple(x - 1 if j == i else x for j, x in enumerate(m))
                add_to(res, dm, c * e)
        return Polynomial(self.nvars, res)

    def eliminate(self, i):
        """Set variable i to zero and drop its slot from every monomial."""
        res = {}
        for m, c in self.coords.items():
            if m[i]:
                continue
            res[m[:i] + m[i + 1:]] = c
        return Polynomial(self.nvars - 1, res)

    def sorted_terms(self):
        return sorted(self.coords.items(), key=lambda t: degrevlex_key(t[0]), reverse=True)
