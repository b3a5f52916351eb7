"""Milnor symbols over the test algebras and their dlog realization.

A symbol {u_1, ..., u_p} holds the units u_i of one algebra themselves.
Symbols are formal: no quotient group is ever constructed.  The computable
content is (a) the dlog realization into Omega^p, which kills the defining
relations exactly, (b) generator families for the relative kernel of
K(A[s]/s^(n+1)) -> K(A[s]/s^n), (c) the evaluation sending a generator
{1 + c s^n, u_1, ..., u_(p-1)} to c * dlog u_1 ^ ... ^ dlog u_(p-1), and
(d) rank checks showing those images span the differential side.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from itertools import combinations_with_replacement, product

from .algebra import (
    AlgebraElement,
    derived_algebra,
    extension_name,
    quotient_mod_variable,
    sigma_layers,
    transport,
    truncated_extension,
)
from .errors import (
    AlgebraMismatch,
    NonUnitEntry,
    NotGeneratorShape,
    OutOfDomain,
    SigmaNotDesignated,
)
from .kahler import omega_module, wedge, dlog
from .laurent import Symbol, SymbolCombination
from .linalg import RowSpace, augmented_space
from .report import field_rows


def _check_unit(u):
    if not u.augmentation():
        raise NonUnitEntry(f"entry {u} is not a unit")
    return u


def make_symbol(units, coeff=1):
    """The single-term combination coeff * {u_1, ..., u_k} of algebra units."""
    sym = Symbol(tuple(_check_unit(u) for u in units))
    return SymbolCombination(sym.algebra, sym.degree, [(coeff, sym)])


def _dlog_wedge(algebra, units):
    """dlog u_1 ^ ... ^ dlog u_k over `algebra`; the 0-form 1 when k = 0."""
    acc = None
    for u in units:
        f = dlog(u)
        acc = f if acc is None else wedge(acc, f)
    return omega_module(algebra, 0).form({0: 1}) if acc is None else acc


def dlog_realize(comb):
    """{u_1, ..., u_p} goes to dlog u_1 ^ ... ^ dlog u_p; Q-linear over the terms.

    Steinberg instances {a, 1-a}, {a, -a} and repeats {a, a} land on wedges
    of proportional 1-forms and vanish exactly.
    """
    A = comb.algebra
    total = omega_module(A, comb.degree).form()
    for coeff, sym in comb.terms:
        total = total + _dlog_wedge(A, sym.entries).scale(coeff)
    return total


def _coefficient_wedge(c, units):
    """c * dlog u_1 ^ ... ^ dlog u_k over c's algebra; the 0-form c when k = 0.

    The wedge is memoized on the algebra it lives in, keyed by the units
    themselves, which hash by value; only the action of c is computed per call.
    """
    A = c.algebra
    return A.memo("dlog_wedges", tuple(units), _dlog_wedge, A, units).act(c)


# -- deterministic sample grids ------------------------------------------------


def coefficient_samples(algebra):
    """The monomial basis as elements (the c and e grid)."""
    return [algebra.basis_element(i) for i in range(algebra.dimension)]


def unit_samples(algebra):
    """Units 1 + b for non-constant basis monomials b, plus constants 2, 3."""
    out = [algebra.one + algebra.basis_element(i) for i in range(1, algebra.dimension)]
    out.append(algebra.element(2))
    out.append(algebra.element(3))
    return out


def relative_generators(algebra, n, p, coeffs=None, units=None):
    """Generator families for the relative kernel at level n >= 1, degree p >= 1.

    Over B = A[s]/s^(n+1): symbols {1 + c s^n, u_1, ..., u_(p-1)} for c in the
    coefficient grid, then {1 + e s^n, 1 - s, u_2, ..., u_(p-1)} for unit e.
    At n = 1 the first half is the tangent family over A[eps]/eps^2.  The
    family is built as it is read, in that order; its len() is counted.
    s is named by extension_name, so A may have a variable called sigma.
    """
    if n < 1:
        raise OutOfDomain("generator families need level n >= 1")
    if p < 1:
        raise OutOfDomain("generator families need degree p >= 1")
    s = extension_name(algebra)
    B = truncated_extension(algebra, s, n + 1)
    sigma = B.variable(s)
    sn = sigma ** n
    coeffs = coefficient_samples(algebra) if coeffs is None else [algebra.element(c) for c in coeffs]
    units = unit_samples(algebra) if units is None else [algebra.element(u) for u in units]
    firsts = [B.one + transport(c, B) * sn for c in coeffs]  # units, as n >= 1
    heads = [((first,), p - 1) for first in firsts]
    if p >= 2:
        one_minus = B.one - sigma
        heads += [((first, one_minus), p - 2)
                  for c, first in zip(coeffs, firsts) if c.augmentation()]
    return GeneratorFamily(B, tuple(heads), tuple(_check_unit(transport(u, B)) for u in units))


class GeneratorFamily:
    """The symbols head + tail over B, for each (head, k) in `heads` and
    each tail of k units from `lifted`, made on each pass from the shared
    units, which were checked once when the family was built.

    len() counts them without building any, and raises OutOfDomain past sys.maxsize.
    """

    __slots__ = ("algebra", "heads", "lifted")

    def __init__(self, algebra, heads, lifted):
        self.algebra, self.heads, self.lifted = algebra, heads, lifted

    def __len__(self):
        m = len(self.lifted)  # m^min(k, 64) is m^k, or past sys.maxsize as m^k is
        count = sum(m ** min(k, 64) for _, k in self.heads)
        if count > sys.maxsize:
            raise OutOfDomain(f"degree p = {self.heads[0][1] + 1} makes more generators "
                              f"than the limit of {sys.maxsize}")
        return count

    def __iter__(self):
        for head, k in self.heads:
            degree = len(head) + k
            for tail in product(self.lifted, repeat=k):
                yield SymbolCombination.one_term(self.algebra, degree, Symbol(head + tail))


def _classify_slot(entry):
    """(c, unit, one_minus) for a slot of B = A[s]/s^(n+1): c when the entry
    is 1 + c s^n, the unit over A when it is s-free (each None otherwise),
    and whether the entry is 1 - s.  relative_realize memoizes it on B, so
    a family, which shares each slot's unit across many symbols, classifies
    every distinct entry once."""
    B = entry.algebra
    layers = sigma_layers(entry)
    one, n = B.base.one, B.ext_order - 1
    first = layers[0] == one and not any(layers[1:n])
    return (layers[n] if first else None, None if any(layers[1:]) else layers[0],
            layers[:2] == [one, -one][:n + 1] and not any(layers[2:]))


def relative_realize(comb, n):
    """Evaluate the relative-class map on generator-shaped combinations.

    {1 + c s^n, u_1, ..., u_(p-1)} with s-free units u_i goes to
    c * dlog u_1 ^ ... ^ dlog u_(p-1) over the base algebra; terms containing
    a 1 - s slot are sent to zero.  The s^n/s^(n+1) factor is a degree tag:
    the target is Omega^(p-1) of the base.  Each slot is classified once on B,
    keyed by the entry itself, which hashes by value.
    """
    B = comb.algebra
    if B.base is None:
        raise NotGeneratorShape("combination does not live in a truncated extension")
    if B.ext_order != n + 1:
        raise NotGeneratorShape(f"expected truncation order {n + 1}, got {B.ext_order}")
    total = None
    for coeff, sym in comb.terms:
        first = sym.entries[0]
        if first.algebra is not B:
            raise AlgebraMismatch(f"symbol {sym} does not live in the combination's algebra")
        c = B.memo("slots", first, _classify_slot, first)[0]
        if c is None:
            raise NotGeneratorShape(f"first slot of {sym} is not 1 + c*{B.ext_name}^{n}")
        units = []
        for entry in sym.entries[1:]:
            _, unit, one_minus = B.memo("slots", entry, _classify_slot, entry)
            if one_minus:
                break
            if unit is None:
                raise NotGeneratorShape(f"slot {entry} is not {B.ext_name}-free")
            units.append(unit)
        else:
            form = _coefficient_wedge(c, units)
            form = form if coeff == 1 else form.scale(coeff)
            total = form if total is None else total + form
    return omega_module(B.base, comb.degree - 1).form() if total is None else total


def tangent_realize(comb):
    """Realize tangent-kernel symbols {1 + c eps, u_1, ...} over A[eps]/eps^2
    as forms over the base: the relative map at level 1."""
    return relative_realize(comb, 1)


class SpanVerdict(namedtuple("SpanVerdict", "rank dim spans certificate")):
    """certificate: the indices of targets forming a basis of the span."""

    __slots__ = ()

    def record(self):
        return [
            ("span.rank", self.rank),
            ("span.dim", self.dim),
            ("span.spans", self.spans),
            ("span.certificate", ",".join(str(i) for i in self.certificate) or "-"),
        ]


def span_check(targets, module):
    """Exact rank of the span of `targets` inside `module`.

    `targets` may be any iterable, such as a generator that realizes each
    target on demand.  It is read only until the rank reaches
    module.dimension, and not at all when that is 0: no later target can
    raise the rank, so the witnesses, the indices of the targets that did,
    are the same as from reading every target.
    """
    space = RowSpace()
    witnesses = []
    dim = module.dimension
    if dim:
        for idx, form in enumerate(targets):
            if form.module is not module:
                raise AlgebraMismatch("target form lives in a different module")
            if space.insert(form.coords) is not None:
                witnesses.append(idx)
                if space.rank == dim:
                    break
    rank = space.rank
    return SpanVerdict(rank, dim, rank == dim, tuple(witnesses))


def vanishing_additivity_check(algebra, c1, c2, n):
    """Exact identity splitting a sum coefficient into a product of 1-units.

    Verifies (1 - (n+1)(c1+c2) s^n) = (1 - (n+1) c1 s^n)(1 - (n+1) c2 s^n)
    in A[s]/s^(n+1); true for all n >= 1 because s^(2n) dies there.
    """
    s = extension_name(algebra)
    B = truncated_extension(algebra, s, n + 1)
    sn = B.variable(s) ** n
    c1 = transport(algebra.element(c1), B)
    c2 = transport(algebra.element(c2), B)
    m = n + 1
    lhs = B.one - (c1 + c2).scale(m) * sn
    rhs = (B.one - c1.scale(m) * sn) * (B.one - c2.scale(m) * sn)
    return lhs == rhs


# -- transport of the isomorphism to sigma inside the algebra ------------------


class TransportReport(namedtuple("TransportReport",
                                  "n base_dim target_dim surjective multiplicative kernel_dim "
                                  "tensor_target_dim compatible degenerate samples")):
    __slots__ = ()

    @property
    def ok(self):
        return self.surjective and self.multiplicative and self.compatible

    def record(self):
        return field_rows("tau", self)


def transport_check(B, n):
    """Model sigma as an element: compare the polynomial realization with the
    quotient-side realization through tau: A'[lam]/lam^n -> B/sigma^n.

    A' = B/sigma.  tau sends basis monomials b*lam^j to the class of
    b*sigma^j; lam carries sigma's name, so tau is transport by name.  The
    report checks surjectivity and multiplicativity on monomial bases.
    Compatibility is tested on the degree-2 generators in Omega^1 of A'
    tensored with the cyclic module sigma^n/sigma^(n+1), computed as the
    quotient by the annihilator action.  Each sample's c' is in the span of
    `layer` by construction: tau(1 + c*lam^n) - 1 = tau(c)*sigma^n is the row
    `layer` was built from for c, so 1 - tau(1 + c*lam^n) reduces to (0 | c').
    """
    if n < 1:
        raise OutOfDomain("transport checks need n >= 1")
    sigma_name = B.spec.distinguished
    if sigma_name is None:
        raise SigmaNotDesignated("the algebra does not designate a sigma variable")
    Ap = quotient_mod_variable(B, sigma_name)

    Bn, Bn1 = (derived_algebra(B, B.names, B.spec.relations + (f"{sigma_name}^{k}",),
                               sigma_name) for k in (n, n + 1))
    dom = truncated_extension(Ap, sigma_name, n)

    # surjectivity on monomial bases
    basis = [dom.basis_element(i) for i in range(dom.dimension)]
    images = [transport(b, Bn) for b in basis]
    surjective = RowSpace(img.coords for img in images).rank == Bn.dimension

    # multiplicativity of the monomial-level map, on basis pairs i <= j
    multiplicative = all(transport(a * b, Bn) == ta * tb for (a, ta), (b, tb)
                         in combinations_with_replacement(zip(basis, images), 2))

    # b -> b*sigma^n from A' to B/sigma^(n+1), eliminated once: its relations
    # are the annihilator of sigma^n / sigma^(n+1) as an A'-module, and it
    # solves cbar * sigma^n = w for every sample below
    sig_n = Bn1.variable(sigma_name) ** n
    degenerate = not bool(sig_n)
    ncols = Bn1.dimension

    def in_ap(row):
        return AlgebraElement(Ap, {col - ncols: v for col, v in row.items()})

    layer = augmented_space([(transport(b, Bn1) * sig_n).coords for b in coefficient_samples(Ap)],
                            ncols)
    kernel_basis = [in_ap(row) for lead, row in layer.pivots.items() if lead >= ncols]

    # the tensor target Omega^1_{A'} / (annihilator * Omega^1_{A'})
    M = omega_module(Ap, 1)
    killed = RowSpace(bform.act(k).coords for k in kernel_basis
                      for bform in M.basis_forms())
    tensor_dim = M.dimension - killed.rank

    def to_tensor(form):
        return killed.reduce(form.coords)

    # compatibility on generators {1 + c lam^n, u}
    compatible = True
    samples = 0
    if not degenerate:
        dom_full = truncated_extension(Ap, sigma_name, n + 1)
        lam_n = dom_full.variable(sigma_name) ** n
        for c, u in product(coefficient_samples(Ap), unit_samples(Ap)):
            samples += 1
            first = dom_full.one + transport(c, dom_full) * lam_n
            direct = relative_realize(make_symbol([first, transport(u, dom_full)], 1), n)
            # route the first entry through tau and realize on the quotient
            # side; u, s-free, is its own image there, and c' is in the span
            residual = layer.reduce((Bn1.one - transport(first, Bn1)).coords)
            routed = _coefficient_wedge(in_ap(residual), [u])
            if to_tensor(direct) != to_tensor(routed):
                compatible = False
                break

    return TransportReport(
        n=n,
        base_dim=dom.dimension,
        target_dim=Bn.dimension,
        surjective=surjective,
        multiplicative=multiplicative,
        kernel_dim=len(kernel_basis),
        tensor_target_dim=tensor_dim,
        compatible=compatible,
        degenerate=degenerate,
        samples=samples,
    )

