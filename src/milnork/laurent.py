"""Laurent polynomials in sigma with algebra coefficients, and the formal
symbols and symbol combinations shared by every symbol in the engine.

These model the units of A[[sigma]][1/sigma] that occur in the rewrite
chains: every atom is a Laurent polynomial whose lowest-degree coefficient is
a unit of A (sigma itself included), with a formal integer exponent.
Inverses are never expanded into series; value equality of entries is
decided by cross-multiplying the positive- and negative-exponent parts,
which is an exact Laurent-polynomial identity.  Atoms common to both parts
cancel first, and EXPANSION_BUDGET bounds what is expanded.

A truncation order may be applied to products, which models the quotient
A[sigma]/sigma^N after the projection step.
"""

from __future__ import annotations

import operator

from .algebra import extension_name
from .errors import AlgebraMismatch, NonUnitEntry, ParseError, PositionInvalid
from .expr import evaluate, polynomial_str
from .linalg import add_to, rational
from .poly import Polynomial, power


# The most one side of a comparison may expand to: both its sigma-span and
# its total atom exponent.  A wider side fails with PositionInvalid, so a
# short certificate field such as (1 + sigma)^3000 or 2^1000000000 costs
# nothing.  The value is the crosscheck's precision cap (certify.MAX_PRECISION):
# the eq7/eq8 chains it admits (n <= 40) expand sides of span and total
# exponent at most max(n + 2, 6).
EXPANSION_BUDGET = 128


class LaurentPolynomial:
    """Map sigma-degree -> algebra element; degrees may be negative."""

    __slots__ = ("algebra", "coeffs", "_key")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = {d: c for d, c in coeffs.items() if c}
        self._key = None

    @classmethod
    def constant(cls, algebra, value):
        return cls(algebra, {0: algebra.element(value)})

    @classmethod
    def sigma(cls, algebra):
        return cls(algebra, {1: algebra.one})

    def __bool__(self):
        return bool(self.coeffs)

    def ord(self):
        return min(self.coeffs) if self.coeffs else None

    def maxdeg(self):
        return max(self.coeffs) if self.coeffs else None

    def truncate(self, order):
        return LaurentPolynomial(self.algebra,
                                 {d: c for d, c in self.coeffs.items() if d < order})

    def __add__(self, other):
        res = dict(self.coeffs)
        for d, c in other.coeffs.items():
            add_to(res, d, c)
        return LaurentPolynomial(self.algebra, res)

    def __neg__(self):
        return LaurentPolynomial(self.algebra, {d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def mul(self, other, order=None):
        res = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                if order is None or d < order:
                    add_to(res, d, c1 * c2)
        return LaurentPolynomial(self.algebra, res)

    def power(self, k, order=None):
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial")
        return power(self, k, LaurentPolynomial.constant(self.algebra, 1),
                     lambda a, b: a.mul(b, order))

    def key(self):
        """Computed once: a polynomial, its coeffs included, is never changed."""
        if self._key is None:
            self._key = tuple(sorted((d, c.key()) for d, c in self.coeffs.items()))
        return self._key

    def to_string(self):
        """Expression-grammar string, sigma named by extension_name;
        requires nonnegative degrees."""
        if any(d < 0 for d in self.coeffs):
            raise ValueError("negative sigma-degree has no expression form")
        A = self.algebra
        names = A.names + (extension_name(A),)
        terms = {A.basis[i] + (d,): q for d, c in self.coeffs.items() for i, q in c.coords.items()}
        return polynomial_str(Polynomial(len(names), terms), names)

    def span(self):
        return self.maxdeg() - self.ord() if self.coeffs else 0

    @classmethod
    def from_string(cls, algebra, text):
        """`text` evaluated over A[sigma], sigma named by extension_name, with
        each coefficient reduced in A after every operation.  Each product and
        power is charged the sigma-span of its result, and the one whose charge
        passes EXPANSION_BUDGET for the string raises ParseError unexpanded."""
        names = algebra.names + (extension_name(algebra),)
        meter = [0]

        def variable(i):
            if i == algebra.nvars:
                return _Metered(cls.sigma(algebra), meter)
            return _Metered(cls(algebra, {0: algebra.variable(names[i])}), meter)

        return evaluate(text, names, lambda q: _Metered(cls.constant(algebra, q), meter),
                        variable).value

    def __str__(self):
        return self.to_string()


class _Metered:
    """A value inside one from_string call.  All of them share one meter, so
    every product and power in the string is charged against one budget."""

    __slots__ = ("value", "meter")

    def __init__(self, value, meter):
        self.value, self.meter = value, meter

    def _charge(self, span):
        self.meter[0] += span
        if self.meter[0] > EXPANSION_BUDGET:
            raise ParseError(f"expression spans {self.meter[0]} sigma-degrees in its products "
                             f"and powers, over the budget of {EXPANSION_BUDGET}")

    def __add__(self, other):
        return _Metered(self.value + other.value, self.meter)

    def __sub__(self, other):
        return _Metered(self.value - other.value, self.meter)

    def __neg__(self):
        return _Metered(-self.value, self.meter)

    def __mul__(self, other):
        self._charge(self.value.span() + other.value.span())
        return _Metered(self.value.mul(other.value), self.meter)

    def __pow__(self, k):
        self._charge(self.value.span() * k)
        return _Metered(self.value.power(k), self.meter)


def _check_atom(poly):
    if not poly or not poly.coeffs[poly.ord()].augmentation():
        raise NonUnitEntry(
            "atom is not a unit of A[[sigma]][1/sigma]: lowest coefficient must be a unit of A")


class LaurentEntry:
    """Formal product of atoms (LaurentPolynomial, integer exponent)."""

    __slots__ = ("algebra", "atoms")

    def __init__(self, algebra, atoms):
        self.algebra = algebra
        norm = []
        for poly, exp in atoms:
            exp = operator.index(exp)
            if exp == 0:
                continue
            if poly.algebra is not algebra:
                raise AlgebraMismatch("atom coefficients live in a different algebra")
            _check_atom(poly)
            norm.append((poly, exp))
        self.atoms = tuple(norm)

    def split(self, order=None):
        """(numerator, denominator) products of the atom powers.

        Atoms are merged by key first, so a unit that occurs with both signs
        cancels before anything is expanded.  Over the Laurent ring every
        atom is a non-zero-divisor; mod sigma^order only the atoms of
        sigma-order 0 are units, so only those cancel there.  A side over
        EXPANSION_BUDGET raises PositionInvalid instead of being expanded.
        """
        pos, neg, polys = {}, {}, {}
        for poly, exp in self.atoms:
            key = poly.key()
            polys[key] = poly
            side = pos if exp > 0 else neg
            side[key] = side.get(key, 0) + abs(exp)
        for key in pos.keys() & neg.keys():
            if order is None or polys[key].ord() == 0:
                common = min(pos[key], neg[key])
                pos[key] -= common
                neg[key] -= common
        return tuple(self._expand([(polys[k], e) for k, e in side.items() if e], order)
                     for side in (pos, neg))

    def _expand(self, atoms, order):
        low = sum(exp * poly.ord() for poly, exp in atoms)
        high = sum(exp * poly.maxdeg() for poly, exp in atoms)
        if order is not None:
            high = min(high, order - 1)
        total = sum(exp for _, exp in atoms)
        if max(high - low, total) > EXPANSION_BUDGET:
            raise PositionInvalid(
                f"expanding {LaurentEntry(self.algebra, atoms)} spans {high - low} "
                f"sigma-degrees with total exponent {total}, over the budget of "
                f"{EXPANSION_BUDGET}")
        acc = LaurentPolynomial.constant(self.algebra, 1)
        for poly, exp in atoms:
            acc = acc.mul(poly.power(exp, order), order)
        return acc

    def truncate(self, order):
        return LaurentEntry(self.algebra,
                            [(poly.truncate(order), exp) for poly, exp in self.atoms])

    def key(self):
        return tuple((poly.key(), exp) for poly, exp in self.atoms)

    def __str__(self):
        if not self.atoms:
            return "1"
        parts = []
        for poly, exp in self.atoms:
            body = f"({poly})"
            parts.append(body if exp == 1 else f"{body}^{exp}")
        return "*".join(parts)


def entries_value_equal(e1, e2, order=None):
    """value(e1) == value(e2): the quotient e1/e2, its common atoms
    cancelled, is one."""
    quotient = LaurentEntry(e1.algebra, e1.atoms + tuple((p, -exp) for p, exp in e2.atoms))
    return entry_is_one(quotient, order)


def entries_sum_is(e1, e2, target, order=None):
    """value(e1) + value(e2) = target, for target 1 (the Steinberg side
    condition) or 0 (the minus-argument one)."""
    n1, d1 = e1.split(order)
    n2, d2 = e2.split(order)
    lhs = n1.mul(d2, order) + n2.mul(d1, order)
    return lhs.coeffs == (d1.mul(d2, order).coeffs if target else {})


def entry_is_one(e, order=None):
    n, d = e.split(order)
    return n.coeffs == d.coeffs


class Symbol:
    """A frozen tuple of entries over one algebra.

    Entries are algebra units (AlgebraElement values) or LaurentEntry values
    (formal products of Laurent atoms); both provide `algebra` and `key()`.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        if len({id(e.algebra) for e in entries}) > 1:
            raise AlgebraMismatch("symbol entries over different algebras")
        self.entries = entries

    def __eq__(self, other):
        return isinstance(other, Symbol) and self.entries == other.entries

    @classmethod
    def from_atoms(cls, algebra, atom_lists):
        """The symbol of LaurentEntry values over `algebra`, one per atom list,
        each built before the next list is read."""
        return cls(tuple(LaurentEntry(algebra, atoms) for atoms in atom_lists))

    @property
    def degree(self):
        return len(self.entries)

    @property
    def algebra(self):
        return self.entries[0].algebra

    def key(self):
        return tuple(e.key() for e in self.entries)

    def replace(self, slot, entry):
        new = list(self.entries)
        new[slot] = entry
        return Symbol(tuple(new))

    def truncate(self, order):
        return Symbol(tuple(e.truncate(order) for e in self.entries))

    def __str__(self):
        return "{" + ", ".join(str(e) for e in self.entries) + "}"


class SymbolCombination:
    """Canonical Q-combination of symbols: merged on key, sorted, no zeros."""

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra, degree, terms):
        self.algebra = algebra
        self.degree = degree
        merged = {}
        keyed = {}
        for coeff, sym in terms:
            coeff = rational(coeff)
            if not coeff:
                continue
            if sym.degree != degree:
                raise AlgebraMismatch("mixed symbol degrees in one combination")
            k = sym.key()
            add_to(merged, k, coeff)
            keyed.setdefault(k, sym)
        self.terms = tuple((merged[k], keyed[k]) for k in sorted(merged))

    @classmethod
    def one_term(cls, algebra, degree, sym):
        """1 * sym of the given degree: one term is already merged and sorted."""
        comb = cls.__new__(cls)
        comb.algebra, comb.degree, comb.terms = algebra, degree, ((1, sym),)
        return comb

    def replace_term(self, idx, replacements):
        terms = list(self.terms)
        del terms[idx]
        return SymbolCombination(self.algebra, self.degree, terms + list(replacements))

    def with_term(self, coeff, sym):
        return SymbolCombination(self.algebra, self.degree, list(self.terms) + [(coeff, sym)])

    def find(self, sym_key):
        for i, (_, sym) in enumerate(self.terms):
            if sym.key() == sym_key:
                return i
        return None

    def truncate(self, order):
        return SymbolCombination(self.algebra, self.degree,
                                 [(c, s.truncate(order)) for c, s in self.terms])

    def key(self):
        return tuple((str(c), s.key()) for c, s in self.terms)

    def __add__(self, other):
        if other.algebra is not self.algebra or other.degree != self.degree:
            raise AlgebraMismatch("combinations do not match")
        return SymbolCombination(self.algebra, self.degree, self.terms + other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, SymbolCombination) and self.key() == other.key()

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{s}" for c, s in self.terms)
