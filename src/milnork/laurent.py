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
from .errors import AlgebraMismatch, NonUnitEntry, ParseError, PositionInvalid, quote
from .expr import evaluate, polynomial_str
from .linalg import Vector, add_to, printable, printable_power, rational
from .poly import Polynomial, power


# The most one side of a comparison may expand to: both its sigma-span and
# its total atom exponent.  A wider side fails with PositionInvalid, so a
# short certificate field such as (1 + sigma)^3000 or 2^1000000000 costs
# nothing.  The value is the crosscheck's precision cap (certify.MAX_PRECISION):
# the eq7/eq8 chains it admits, whose N is 3(n+2) (n <= 40), expand sides of
# span and total exponent at most max(n + 2, 6).
EXPANSION_BUDGET = 128


class LaurentPolynomial(Vector, space="algebra"):
    """Map sigma-degree -> algebra element; degrees are nonnegative."""

    __slots__ = ("algebra", "coords", "_key", "_str")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = {d: c for d, c in coords.items() if c}
        self._key = self._str = None

    @classmethod
    def constant(cls, algebra, value):
        return cls(algebra, {0: algebra.element(value)})

    @classmethod
    def sigma(cls, algebra):
        return cls(algebra, {1: algebra.one})

    def ord(self):
        return min(self.coords) if self.coords else None

    def maxdeg(self):
        return max(self.coords) if self.coords else None

    def truncate(self, order):
        return LaurentPolynomial(self.algebra,
                                 {d: c for d, c in self.coords.items() if d < order})

    def mul(self, other, order=None):
        res = {}
        for d1, c1 in self.coords.items():
            for d2, c2 in other.coords.items():
                d = d1 + d2
                if order is None or d < order:
                    add_to(res, d, c1 * c2)
        return LaurentPolynomial(self.algebra, res)

    def power(self, k, order=None):
        """self^k, truncated below sigma^order when it is given: degrees are
        nonnegative, so the factors may be truncated first."""
        base = self if order is None else self.truncate(order)
        return power(base, k, lambda: LaurentPolynomial.constant(self.algebra, 1),
                     lambda a, b: a.mul(b, order))

    def key(self):
        """Computed once: a polynomial, its coords included, is never changed."""
        if self._key is None:
            self._key = tuple(sorted((d, c.key()) for d, c in self.coords.items()))
        return self._key

    def __str__(self):
        """Expression-grammar string, sigma named by extension_name.  Printed
        once, as the key is computed once."""
        if self._str is None:
            A = self.algebra
            names = A.names + (extension_name(A),)
            terms = {A.basis[i] + (d,): q for d, c in self.coords.items()
                     for i, q in c.coords.items()}
            self._str = polynomial_str(Polynomial(len(names), terms), names)
        return self._str

    def span(self):
        return self.maxdeg() - self.ord() if self.coords else 0

    @classmethod
    def from_string(cls, algebra, text):
        """`text` evaluated over A[sigma], sigma named by extension_name, with
        each coefficient reduced in A after every operation.  Each product and
        power is charged the sigma-span of its result, and the one whose charge
        passes EXPANSION_BUDGET for the string raises ParseError unexpanded.  So
        does a value holding a coefficient or sigma-degree longer than the
        interpreter prints, which a power of a span-0 atom reaches uncharged;
        a power whose lowest coefficient's augmentation would hold one raises
        before it is built."""
        names = algebra.names + (extension_name(algebra),)
        what = f"a number in {quote(text)}"
        spent = [0]  # every product and power in the string is charged against one budget

        def charged(span, op, *operands):
            spent[0] += span
            if spent[0] > EXPANSION_BUDGET:
                raise ParseError(f"expression spans {spent[0]} sigma-degrees in its products "
                                 f"and powers, over the budget of {EXPANSION_BUDGET}")
            return op(*operands)

        def variable(i):
            if i == algebra.nvars:
                return cls.sigma(algebra)
            return cls(algebra, {0: algebra.variable(names[i])})

        def raise_to(a, k):  # a unit lowest coefficient of a has its k-th power lowest in a^k
            printable_power(a.coords[a.ord()].augmentation() if a else 0, k, ParseError, what)
            return a.power(k)

        poly = evaluate(text, names, lambda q: cls.constant(algebra, q), variable,
                        lambda a, b: charged(a.span() + b.span(), cls.mul, a, b),
                        lambda a, k: charged(a.span() * k, raise_to, a, k))
        for deg, c in poly.coords.items():
            for q in (deg, *c.coords.values()):
                printable(q, ParseError, what)
        return poly


def _check_atom(poly):
    if not poly or not poly.coords[poly.ord()].augmentation():
        raise NonUnitEntry(
            "atom is not a unit of A[[sigma]][1/sigma]: lowest coefficient must be a unit of A")


class LaurentEntry:
    """Formal product of atoms (LaurentPolynomial, integer exponent)."""

    __slots__ = ("algebra", "atoms", "_key")

    def __init__(self, algebra, atoms):
        self.algebra = algebra
        self._key = None
        norm = []
        for poly, exp in atoms:
            exp = operator.index(exp)
            if exp == 0:
                continue
            _check_atom(poly)
            # a checked state holding a number the interpreter cannot print fails its step
            norm.append((poly, printable(exp, PositionInvalid, "an atom exponent")))
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
                f"expanding {quote(LaurentEntry(self.algebra, atoms))} spans {quote(high - low)} "
                f"sigma-degrees with total exponent {quote(total)}, over the budget of "
                f"{EXPANSION_BUDGET}")
        acc = None
        for poly, exp in atoms:
            factor = poly.power(exp, order)
            acc = factor if acc is None else acc.mul(factor, order)
        return LaurentPolynomial.constant(self.algebra, 1) if acc is None else acc

    def truncate(self, order):
        return LaurentEntry(self.algebra,
                            [(poly.truncate(order), exp) for poly, exp in self.atoms])

    def key(self):
        """Computed once: an entry, its atoms included, is never changed."""
        if self._key is None:
            self._key = tuple((poly.key(), exp) for poly, exp in self.atoms)
        return self._key

    def __str__(self):
        return "*".join(f"({poly})" if exp == 1 else f"({poly})^{exp}"
                        for poly, exp in self.atoms) or "1"


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
    return lhs == d1.mul(d2, order) if target else not lhs


def entry_is_one(e, order=None):
    n, d = e.split(order)
    return n == d


class Symbol:
    """A frozen tuple of entries over one algebra.

    Entries are algebra units (AlgebraElement values) or LaurentEntry values
    (formal products of Laurent atoms); both provide `algebra` and `key()`.
    """

    __slots__ = ("entries", "_key")

    def __init__(self, entries):
        for e in entries:
            if e.algebra is not entries[0].algebra:
                raise AlgebraMismatch("symbol entries over different algebras")
        self.entries = entries
        self._key = None

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
        """Computed once: a symbol, its entries included, is never changed."""
        if self._key is None:
            self._key = tuple(e.key() for e in self.entries)
        return self._key

    def replace(self, slot, entry):
        new = list(self.entries)
        new[slot] = entry
        return Symbol(tuple(new))

    def truncate(self, order):
        return Symbol(tuple(e.truncate(order) for e in self.entries))

    def __str__(self):
        return "{" + ", ".join(str(e) for e in self.entries) + "}"

    __repr__ = __str__  # a bad step field prints the same on every run


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
        self.terms = tuple((printable(merged[k], PositionInvalid, "a coefficient"), keyed[k])
                           for k in sorted(merged))

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
        return tuple((c, s.key()) for c, s in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, SymbolCombination) and self.key() == other.key()

    def __str__(self):
        return " + ".join(f"{c}*{s}" for c, s in self.terms) or "0"
