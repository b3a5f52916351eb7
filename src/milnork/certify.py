"""Machine-checked rewrite certificates for degree-2 symbol identities.

A certificate carries a start state, a goal state, and a sequence of steps.
Every step is an instance of a sound relation of K_2 tensored with Q, and
check_step verifies the side conditions exactly before rewriting:

  bilinearity     split / merge an entry's atom list across two terms, or
                  delete and insert terms whose designated entry collapses
                  to exactly 1
  steinberg       delete or insert a term whose two designated entries have
                  values summing to 1
  minus_arg       same with values summing to 0
  inverse_negation  flip the sign of a single-atom exponent and of the
                  coefficient
  torsion_scale   move an integer between a term's coefficient and a
                  single-atom exponent (valid up to torsion)
  entry_factor / entry_identity
                  replace an entry's atom list by another with the same
                  collapsed value, checked by exact cross-multiplication
  projection      pass from Laurent polynomials to the truncation
                  A[sigma]/sigma^(n+1); requires every atom to have
                  sigma-order zero, and is annotated as relying on the
                  injectivity of restriction from the power-series ring to
                  its localization (Kerz), which this engine does not
                  re-prove

States before the projection step live over exact Laurent polynomials; after
it, all products are truncated.  check_certificate reads its verdict from the
one replay of the steps.  The independent soundness monitor crosscheck_dlog
realizes every intermediate state as an honest 2-form, a symbol {e1, e2} as
sigma * dlog e1 ^ dlog e2 in a high-precision truncation ring, or after the
projection in A[sigma]/sigma^(n+2), and verifies that each step preserves
the form exactly.  That comparison is ExtendedRealizer.agreement, the one
loop shared with the suite's rule-soundness grid, which runs each of its
instances as a one-step replay.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii

from .algebra import (
    AlgebraElement,
    AlgebraSpec,
    build_algebra,
    extension_name,
    truncated_extension,
)
from .errors import (
    NonUnitC,
    NonUnitEntry,
    NotASplittingChain,
    OutOfDomain,
    ParseError,
    PositionInvalid,
    PrecisionTooLarge,
    SideConditionFailed,
    quote,
)
from .kahler import DifferentialForm, d, dlog, map_form, omega_module, wedge
from .laurent import (
    EXPANSION_BUDGET,
    LaurentEntry,
    LaurentPolynomial,
    Symbol,
    SymbolCombination,
    entries_sum_is,
    entries_value_equal,
    entry_is_one,
)
from .linalg import add_to, rational

KERZ_NOTE = ("projection assumes the class descends from the localization to the "
             "power-series ring; injectivity of that restriction (Kerz) is taken "
             "as given, with the dlog crosscheck as independent evidence")

SHORTCUT_NOTE = ("the one-line rewrite of the first slot 1 + c s^(n+1) into "
                 "1 - s(1 + c s^(n+1) - c s^n) is only an equality of symbols "
                 "through the factorization (1-s)(1+c s^(n+1)); this chain takes "
                 "the factorization route explicitly")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_rational(value):
    if not isinstance(value, str):
        return False
    try:
        rational(value)
    except ValueError:
        return False
    return True


_FIELD_CHECKS = {
    **dict.fromkeys(("term", "term2", "slot", "at", "order", "m"), _is_int),
    "slots": lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_int, v)),
    "mode": lambda v: isinstance(v, str),
    "coeff": _is_rational,
    "symbol": lambda v: isinstance(v, Symbol) and v.degree == 2,
}


class _Fields(dict):
    """Step position or payload.  A field the rule needs but the step lacks,
    or gives with the wrong type or an unparsable value, fails the step, not
    the checker."""

    def __missing__(self, key):
        raise PositionInvalid(f"step has no field {key!r}")

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if not _FIELD_CHECKS.get(key, lambda v: True)(value):
            raise PositionInvalid(f"step field {key!r} has a bad value: {quote(value)}")
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default


class RewriteStep:
    __slots__ = ("rule", "position", "payload")

    def __init__(self, rule, position, payload):
        self.rule, self.position, self.payload = rule, _Fields(position), _Fields(payload)


class CertContext(namedtuple("CertContext", "algebra n c")):
    """c: a unit of the base algebra."""

    __slots__ = ()

    @property
    def truncation(self):
        return self.n + 1


class Certificate(namedtuple("Certificate", "context start goal steps claim_lhs claim_rhs "
                                            "linkage annotations", defaults=((),))):
    """linkage: "direct" or "vanishing_start".  No __slots__: the instance dict
    caches the replay, and a copy made by _replace replays its own steps."""

    @cached_property
    def replay(self):
        """The one run of check_step over the steps, shared by the verdict
        and the dlog crosscheck.  A built certificate carries the run its
        builder made; any other replays its steps here, once."""
        run = Replay(self.start, self.context.truncation)
        for i, step in enumerate(self.steps):
            try:
                run.apply(step)
            except (SideConditionFailed, PositionInvalid, NonUnitEntry) as exc:
                run.failure, run.reason = i, str(exc)
                break
        return run


class Replay:
    """A run of check_step from a start state, grown one step at a time.  Given
    a truncation, as a certificate's n + 1, it projects to that order only."""

    def __init__(self, start, truncation=None):
        self.truncation = truncation
        self.states = [CheckState(start)]  # before the first step and after each accepted one
        self.steps = []  # the accepted steps
        self.failure = None  # index of the first rejected step
        self.reason = None

    def apply(self, step):
        after = check_step(self.states[-1], step)
        if step.rule == "projection" and self.truncation not in (None, after.order):
            raise SideConditionFailed(f"projection to sigma^{after.order}, but the context "
                                      f"truncates at sigma^{self.truncation} (n + 1)")
        self.states.append(after)
        self.steps.append(step)

    def rewrite(self, rule, position, payload):
        """Apply a step built here.  A term of `position` may be named by its
        entries' atom lists; the step records that term's index, or None when
        the state lacks it, which check_step refuses as a bad field."""
        state = self.states[-1].state
        named = {key: state.find(Symbol.from_atoms(state.algebra, position[key]).key())
                 for key in ("term", "term2")
                 if key in position and not isinstance(position[key], int)}
        self.apply(RewriteStep(rule, {**position, **named}, payload))


class CheckState:
    __slots__ = ("state", "order")

    def __init__(self, state, order=None):
        self.state = state
        self.order = order  # None over Laurent polynomials, the truncation after projection

    def clone(self, state):
        if self.order is not None:
            _order_zero(state)
        return CheckState(state, self.order)


def _order_zero(state):
    """What the projection needs, and what keeps every atom after it a unit of
    A[s]/s^N: each atom has sigma-order 0."""
    for _, sym in state.terms:
        for entry in sym.entries:
            for poly, _ in entry.atoms:
                if poly.ord() != 0:
                    raise SideConditionFailed(
                        f"atom {poly} has sigma-order {poly.ord()}; "
                        "projection needs order-zero atoms")


class CertificateVerdict(namedtuple("CertificateVerdict", "rules failure_index failure_detail "
                                                          "final_matches_goal claim_ok")):
    """rules: the rule of every step, in order."""

    __slots__ = ()

    @property
    def valid(self):
        return self.failure_index is None and self.final_matches_goal and self.claim_ok

    def record(self):
        rows = [("certificate.valid", self.valid)]
        if self.failure_index is not None:
            rows.append(("certificate.failure_index", self.failure_index))
            rows.append(("certificate.failure_detail", self.failure_detail))
        rows.append(("certificate.steps", len(self.rules)))
        rows.append(("certificate.final_matches_goal", self.final_matches_goal))
        rows.append(("certificate.claim_ok", self.claim_ok))
        # the rejected step and every step after it read FAIL
        accepted = len(self.rules) if self.failure_index is None else self.failure_index
        for i, rule in enumerate(self.rules):
            rows.append((f"certificate.step.{i:02d}",
                         f"{rule}:{'ok' if i < accepted else 'FAIL'}"))
        return rows


def _term_at(state, idx):
    if idx < 0 or idx >= len(state.terms):
        raise PositionInvalid(f"no term at index {idx}")
    return state.terms[idx]


def _slot_at(sym, j):
    if j < 0 or j >= sym.degree:
        raise PositionInvalid(f"no slot {j} in a degree-{sym.degree} symbol")
    return sym.entries[j]


def check_step(cstate, step):
    """Verify one step's side conditions and return the rewritten state."""
    state, order = cstate.state, cstate.order
    rule = step.rule
    pos, pay = step.position, step.payload

    if rule == "projection":
        if order is not None:
            raise SideConditionFailed("projection applies only once, from the Laurent ring")
        trunc = pay["order"]
        _order_zero(state)
        return CheckState(state.truncate(trunc), trunc)

    if rule == "steinberg" or rule == "minus_arg":
        target = 1 if rule == "steinberg" else 0
        mode = pay.get("mode", "remove")
        if mode == "remove":
            coeff, sym = _term_at(state, pos["term"])
            j1, j2 = pay.get("slots", (0, 1))
            if not entries_sum_is(_slot_at(sym, j1), _slot_at(sym, j2), target, order):
                raise SideConditionFailed(
                    f"{rule}: slots {j1},{j2} of {sym} do not sum to {target}")
            return cstate.clone(state.replace_term(pos["term"], []))
        if mode == "insert":
            sym = pay["symbol"]
            j1, j2 = pay.get("slots", (0, 1))
            if not entries_sum_is(_slot_at(sym, j1), _slot_at(sym, j2), target, order):
                raise SideConditionFailed(
                    f"{rule}: inserted symbol {sym} fails the side condition")
            return cstate.clone(state.with_term(rational(pay["coeff"]), sym))
        raise PositionInvalid(f"unknown {rule} mode {quote(mode)}")

    if rule == "bilinearity":
        mode = pay["mode"]
        if mode == "split":
            coeff, sym = _term_at(state, pos["term"])
            entry = _slot_at(sym, pos["slot"])
            k = pay["at"]
            if not (0 < k < len(entry.atoms)):
                raise PositionInvalid(f"cannot split {len(entry.atoms)} atoms at {quote(k)}")
            left = LaurentEntry(sym.algebra, entry.atoms[:k])
            right = LaurentEntry(sym.algebra, entry.atoms[k:])
            return cstate.clone(state.replace_term(
                pos["term"],
                [(coeff, sym.replace(pos["slot"], left)),
                 (coeff, sym.replace(pos["slot"], right))]))
        if mode == "merge":
            i1, i2, j = pos["term"], pos["term2"], pos["slot"]
            if i1 == i2:
                raise PositionInvalid("merge needs two distinct terms")
            c1, s1 = _term_at(state, i1)
            c2, s2 = _term_at(state, i2)
            if c1 != c2:
                raise SideConditionFailed(f"merge: coefficients {quote(c1)} and {quote(c2)} differ")
            for jj in range(s1.degree):
                if jj == j:
                    continue
                if not entries_value_equal(s1.entries[jj], s2.entries[jj], order):
                    raise SideConditionFailed(f"merge: slot {jj} values differ")
            merged = LaurentEntry(s1.algebra, s1.entries[j].atoms + s2.entries[j].atoms)
            terms = [(c, s) for idx, (c, s) in enumerate(state.terms) if idx not in (i1, i2)]
            return cstate.clone(SymbolCombination(
                state.algebra, state.degree,
                terms + [(c1, s1.replace(j, merged))]))
        if mode == "kill":
            coeff, sym = _term_at(state, pos["term"])
            if not entry_is_one(_slot_at(sym, pos["slot"]), order):
                raise SideConditionFailed("kill: designated entry does not collapse to 1")
            return cstate.clone(state.replace_term(pos["term"], []))
        if mode == "insert":
            sym = pay["symbol"]
            if not entry_is_one(_slot_at(sym, pay["slot"]), order):
                raise SideConditionFailed("insert: designated entry does not collapse to 1")
            return cstate.clone(state.with_term(rational(pay["coeff"]), sym))
        raise PositionInvalid(f"unknown bilinearity mode {quote(mode)}")

    if rule not in ("inverse_negation", "torsion_scale", "entry_factor", "entry_identity"):
        raise PositionInvalid(f"unknown rule {quote(rule)}")
    coeff, sym = _term_at(state, pos["term"])
    entry = _slot_at(sym, pos["slot"])
    if rule in ("entry_factor", "entry_identity"):
        new_entry = LaurentEntry(sym.algebra, pay["atoms"])
        if not entries_value_equal(entry, new_entry, order):
            raise SideConditionFailed(
                f"{rule}: {entry} and {new_entry} have different values"
                + (f" mod sigma^{order}" if order else ""))
    else:
        if len(entry.atoms) != 1:
            raise PositionInvalid(f"{rule} wants a single-atom entry")
        poly, exp = entry.atoms[0]
        if rule == "inverse_negation":
            coeff, exp = -coeff, -exp
        else:
            m = pay["m"]
            if m < 1:
                raise SideConditionFailed("torsion_scale factor must be a positive integer")
            mode = pay["mode"]
            if mode == "pack":
                coeff, exp = Fraction(coeff, m), exp * m
            elif mode == "unpack":
                if exp % m:
                    raise SideConditionFailed(f"exponent {quote(exp)} not divisible by {quote(m)}")
                coeff, exp = coeff * m, exp // m
            else:
                raise PositionInvalid(f"unknown torsion_scale mode {quote(mode)}")
        new_entry = LaurentEntry(sym.algebra, [(poly, exp)])
    return cstate.clone(state.replace_term(
        pos["term"], [(coeff, sym.replace(pos["slot"], new_entry))]))


def check_certificate(cert):
    """Valid iff every side condition holds, the final state is the goal, and
    the claim linkage is justified.  The verdict is read from the replay."""
    run = cert.replay
    final_ok = run.failure is None and run.states[-1].state == cert.goal
    return CertificateVerdict(tuple(step.rule for step in cert.steps), run.failure,
                              run.reason, final_ok, final_ok and _claim_linked(cert))


def _claim_linked(cert):
    if cert.linkage == "direct":
        return cert.claim_lhs == cert.start and cert.claim_rhs == cert.goal
    if cert.linkage == "vanishing_start":
        # claim_lhs = goal and claim_rhs = 0: justified because the projected
        # start is visibly zero (some entry collapses to exactly 1)
        if cert.claim_lhs != cert.goal or cert.claim_rhs.terms:
            return False
        if not any(s.rule == "projection" for s in cert.steps):
            return False
        trunc = cert.context.truncation
        projected = cert.start.truncate(trunc)
        for coeff, sym in projected.terms:
            if not any(entry_is_one(e, trunc) for e in sym.entries):
                return False
        return True
    return False


# -- built-in certificate chains ------------------------------------------------


def _eq7_goal(A, c, n):
    """The eq7 goal (n+1) {(1-s) w, g}, and the Laurent polynomials 1 - s,
    w = 1 + c s^(n+1) and g = w - c s^n that it is written in."""
    one = LaurentPolynomial.constant(A, 1)
    one_m_s = one - LaurentPolynomial.sigma(A)
    w = one + LaurentPolynomial(A, {n + 1: c})
    g = w - LaurentPolynomial(A, {n: c})
    goal_sym = Symbol.from_atoms(A, ([(one_m_s, 1), (w, 1)], [(g, 1)]))
    return SymbolCombination(A, 2, [(n + 1, goal_sym)]), (one_m_s, w, g)


def _built(context, run, goal, claim_lhs, claim_rhs, linkage, annotations):
    """The certificate of a builder's run, carrying that run as its replay."""
    assert run.states[-1].state == goal, "internal: certificate chain does not reach its goal"
    cert = Certificate(context, run.states[0].state, goal, tuple(run.steps),
                       claim_lhs, claim_rhs, linkage, annotations)
    cert.__dict__["replay"] = run
    return cert


def splitting_certificate(algebra, c, n):
    """Chain deriving {1 + c s^(n+1), c} = (n+1) {(1-s)(1+c s^(n+1)), 1+c s^(n+1)-c s^n}.

    Works in the Laurent ring, with c a unit of the base algebra.  This is the
    one writer of the eq7 steps; vanishing_from extends its replay.
    """
    if n < 1:
        raise OutOfDomain("certificates need level n >= 1")
    A = algebra
    c = A.element(c)
    if not c.augmentation():
        raise NonUnitC("the coefficient c must be a unit of the base algebra "
                       "(split non-units by additivity first)")
    goal, (one_m_s, w, g) = _eq7_goal(A, c, n)
    sig = LaurentPolynomial.sigma(A)
    c0 = LaurentPolynomial(A, {0: c})
    minus_c_sig = LaurentPolynomial(A, {n + 1: -c})        # -c s^(n+1)
    minus_one = LaurentPolynomial.constant(A, -1)
    one_m_sg = LaurentPolynomial.constant(A, 1) - sig.mul(g)  # 1 - s - c s^(n+2) + c s^(n+1)

    run = Replay(SymbolCombination(A, 2, [(1, Symbol.from_atoms(A, ([(w, 1)], [(c0, 1)])))]))

    # {w, -c s^(n+1)} is a Steinberg pair: the two values sum to 1
    minus = ([(w, 1)], [(minus_c_sig, 1)])
    run.rewrite("steinberg", {}, {"mode": "insert", "coeff": "-1",
                                  "symbol": Symbol.from_atoms(A, minus)})
    # {w, (-1)^6} has a slot collapsing to 1, so it may be inserted freely;
    # the odd power left after unpacking keeps this helper's key distinct
    # from the start term even when c is the constant -1
    sq = ([(w, 1)], [(minus_one, 6)])
    run.rewrite("bilinearity", {}, {"mode": "insert", "coeff": "-1/2",
                                    "symbol": Symbol.from_atoms(A, sq), "slot": 1})
    run.rewrite("torsion_scale", {"term": sq, "slot": 1}, {"mode": "unpack", "m": 2})
    run.rewrite("bilinearity",
                {"term": minus, "term2": ([(w, 1)], [(minus_one, 3)]), "slot": 1},
                {"mode": "merge"})
    run.rewrite("entry_factor",
                {"term": ([(w, 1)], [(minus_c_sig, 1), (minus_one, 3)]), "slot": 1},
                {"atoms": [(c0, 1), (sig, n + 1)]})
    run.rewrite("bilinearity", {"term": ([(w, 1)], [(c0, 1), (sig, n + 1)]), "slot": 1},
                {"mode": "split", "at": 1})
    # the -1 {w, c} piece cancels the start term; only -1 {w, s^(n+1)} remains
    run.rewrite("torsion_scale", {"term": ([(w, 1)], [(sig, n + 1)]), "slot": 1},
                {"mode": "unpack", "m": n + 1})
    oms = ([(one_m_s, 1)], [(sig, 1)])
    run.rewrite("steinberg", {}, {"mode": "insert", "coeff": f"-{n + 1}",
                                  "symbol": Symbol.from_atoms(A, oms)})
    run.rewrite("bilinearity", {"term": oms, "term2": ([(w, 1)], [(sig, 1)]), "slot": 0},
                {"mode": "merge"})
    # the merged -(n+1) {(1-s)w, s} cancels against the split of the next insert
    stein = ([(one_m_sg, 1)], [(sig, 1), (g, 1)])
    run.rewrite("steinberg", {}, {"mode": "insert", "coeff": f"{n + 1}",
                                  "symbol": Symbol.from_atoms(A, stein)})
    run.rewrite("entry_identity", {"term": stein, "slot": 0},
                {"atoms": [(one_m_s, 1), (w, 1)]})
    run.rewrite("bilinearity",
                {"term": ([(one_m_s, 1), (w, 1)], [(sig, 1), (g, 1)]), "slot": 1},
                {"mode": "split", "at": 1})
    # the (n+1) {(1-s)w, s} piece cancels; the goal term remains
    return _built(CertContext(algebra, n, c), run, goal, run.states[0].state, goal,
                  "direct", (SHORTCUT_NOTE,))


def vanishing_from(splitting):
    """Extend a checked eq7 chain by the projection to A[s]/s^(n+1) and conclude
    {1 - s, 1 - (n+1) c s^n} = 0 there.

    The new replay copies the eq7 replay's states and steps, so the shared
    chain is checked once; eq7 is left as it was.
    """
    A, n, c = splitting.context.algebra, splitting.context.n, splitting.context.c
    run7 = splitting.replay
    if not (splitting.linkage == "direct" and run7.failure is None
            and run7.states[-1].state == splitting.goal == _eq7_goal(A, c, n)[0]):
        raise NotASplittingChain("only a checked eq7 chain that reaches its goal extends to eq8")
    # the new steps reuse the goal's own 1 - s, w and g: eq8 holds one copy of each
    ((_, sym),) = splitting.goal.terms
    ((one_m_s, _), (w, _)), ((g, _),) = (entry.atoms for entry in sym.entries)
    trunc = n + 1
    run = Replay(splitting.start, trunc)
    run.states, run.steps = list(run7.states), list(run7.steps)

    run.rewrite("projection", {}, {"order": trunc})
    w_proj = w.truncate(trunc)          # collapses to 1
    g_proj = g.truncate(trunc)          # 1 - c s^n
    run.rewrite("entry_factor", {"term": ([(one_m_s, 1), (w_proj, 1)], [(g_proj, 1)]), "slot": 0},
                {"atoms": [(one_m_s, 1)]})
    run.rewrite("torsion_scale", {"term": ([(one_m_s, 1)], [(g_proj, 1)]), "slot": 1},
                {"mode": "pack", "m": n + 1})
    final_poly = LaurentPolynomial.constant(A, 1) - LaurentPolynomial(A, {n: c.scale(n + 1)})
    run.rewrite("entry_identity", {"term": ([(one_m_s, 1)], [(g_proj, n + 1)]), "slot": 1},
                {"atoms": [(final_poly, 1)]})

    goal_sym = Symbol.from_atoms(A, ([(one_m_s, 1)], [(final_poly, 1)]))
    goal = SymbolCombination(A, 2, [(1, goal_sym)])
    zero = SymbolCombination(A, 2, [])
    return _built(splitting.context, run, goal, goal, zero,
                  "vanishing_start", (SHORTCUT_NOTE, KERZ_NOTE))


def vanishing_certificate(algebra, c, n):
    """The eq8 certificate: the eq7 chain extended by vanishing_from."""
    return vanishing_from(splitting_certificate(algebra, c, n))


# -- independent dlog soundness monitor -----------------------------------------


class ExtendedRealizer:
    """Realize checked states honestly in Omega^2 of R = A[s]/s^(N+1) (see at).

    A symbol {e1, e2} goes to s * dlog e1 ^ dlog e2.  Writing each entry's
    atoms with s^v factored out, dlog e = omega + a * dlog(s), with omega a
    1-form of R and a the integer sum of exponent * v, so that

        s * dlog e1 ^ dlog e2 = s * (omega1 ^ omega2) + (a2 omega1 - a1 omega2) ^ ds,

    as dlog(s) ^ dlog(s) = 0.  This is a form of R, built with the kernel's
    own act and wedge, and two states agree exactly when their forms are
    equal.
    """

    def __init__(self, algebra, precision):
        self.ring = truncated_extension(algebra, extension_name(algebra), precision + 1)
        self.omega1 = omega_module(self.ring, 1)
        self.omega2 = omega_module(self.ring, 2)
        self.s = self.ring.variable(self.ring.ext_name)
        self.ds = d(self.s)

    def entry_dlog(self, entry):
        """(omega, a) with dlog of the entry = omega + a * dlog(s), once per entry."""
        return self.ring.memo("entry_dlog", entry.key(), self._entry_dlog, entry)

    def _entry_dlog(self, entry):
        omega, s_part = self.omega1.form(), 0
        for poly, exp in entry.atoms:
            v = poly.ord()
            omega = omega + dlog(lift_laurent(poly, self.ring, v)).scale(exp)
            s_part += exp * v
        return omega, s_part

    def realize_term(self, sym):
        """Coordinates of s * dlog e1 ^ dlog e2 for a degree-2 symbol, once per symbol."""
        return self.ring.memo("term", sym.key(), self._realize_term, sym)

    def _realize_term(self, sym):
        (w1, a1), (w2, a2) = (self.entry_dlog(e) for e in sym.entries)
        return (wedge(w1, w2).act(self.s) + wedge(w1.scale(a2) - w2.scale(a1), self.ds)).coords

    def realize_state(self, state):
        total = {}
        for coeff, sym in state.terms:
            for col, val in self.realize_term(sym).items():
                add_to(total, col, coeff * val)
        return DifferentialForm(self.omega2, total)

    def at(self, order):
        """This realizer over Laurent polynomials; after the projection to
        s^order, A[s]/s^(order+1)'s, where s * embeds Omega^2 of A[s]/s^order."""
        return self if order is None else shared_realizer(self.ring.base, order)

    def agreement(self, states):
        """Per step between consecutive checked states, whether it preserves
        the realized 2-form exactly.

        Each state is realized once, at its order; the Laurent form before the
        projection is read through map_form in the ring of the state after it.
        """
        agrees, prev = [], self.realize_state(states[0].state)
        for before, after in zip(states, states[1:]):
            form = self.at(after.order).realize_state(after.state)
            if after.order != before.order:
                prev = map_form(prev, form.module.algebra)
            agrees.append(form == prev)
            prev = form
        return agrees


def lift_laurent(poly, ring, shift=0):
    """sigma^(-shift) * poly in the truncation ring A[sigma]/sigma^N, for an
    atom poly over A of sigma-order at least `shift`, each coefficient placed
    in its layer; degrees N and above are zero there.  crosscheck_dlog picks
    its ring's N past the sigma-span of every Laurent-state atom."""
    return AlgebraElement(ring, {ring._place[deg - shift][a]: q for deg, c in poly.coords.items()
                                 if deg - shift < ring.ext_order for a, q in c.coords.items()})


class CrosscheckReport(namedtuple("CrosscheckReport",
                                   "precision steps all_agree final_realization_zero")):
    """steps: per step, (index, rule, agrees)."""

    __slots__ = ()

    def record(self):
        rows = [
            ("crosscheck.precision", self.precision),
            ("crosscheck.all_agree", self.all_agree),
            ("crosscheck.final_zero", self.final_realization_zero),
        ]
        for idx, rule, ok in self.steps:
            rows.append((f"crosscheck.step.{idx:02d}", f"{rule}:{'ok' if ok else 'DISAGREE'}"))
        return rows


# The crosscheck's cost is densest at small n, where the dlog series of
# 1 + c s^(n+1) fills all N sigma-degrees, and grows there nearly as N^2 (2.8-3.1
# times from N = 32 to 64, 3.8 from 64 to 128): eq7 at n = 2 realized at precision N,
# on one Xeon core under CPython 3.11, takes 0.017-0.019 and 0.063-0.071 s on Q[t]/t^3
# at N = 64 and 128, and 0.030-0.036 and 0.115-0.125 s on the ten-dimensional
# Q[x,y]/m^4 (the crosscheck alone, timed inside the process, 14 runs each).  N is
# capped where that worst case stays under 10 s on the five algebras the benchmark
# certifies over (Q[x,y]/m^4 is the slowest).  The cap admits the bundled chains,
# whose N is 3(n+2), up to n = 40; the bundled suite uses N <= 18 and the benchmark N <= 42.
MAX_PRECISION = EXPANSION_BUDGET


def crosscheck_dlog(cert):
    """Realize every intermediate state and verify each step preserves it.

    A symbol {e1, e2} is realized as s * dlog e1 ^ dlog e2; the factor s
    clears the dlog(s) that atoms of nonzero s-order bring.  A Laurent state
    is realized in Omega^2 of A[s]/s^(N+1), a truncated one in A[s]/s^(n+2),
    and the realizer's agreement compares consecutive forms.  The goal is
    realized by the same rule for final_zero.  Nothing is kept between calls.  A
    step the replay rejects is the first disagreeing step.  The precision is
    N = 3 * max(n + 2, the widest sigma-span of an atom the Laurent forms hold):
    3 * span >= span + 1, and N + 1 >= n + 2 reads a form across the projection.
    """
    # the spans of what A[s]/s^(N+1) realizes: the Laurent states, and the goal,
    # read at the last state's order; a truncated state's atoms are cut in its ring
    run = cert.replay
    states = run.states + [CheckState(cert.goal, run.states[-1].order)]
    symbols = {id(s): s for st in states if st.order is None for _, s in st.state.terms}.values()
    spans = (poly.span() for sym in symbols for entry in sym.entries for poly, _ in entry.atoms)
    N = 3 * max(cert.context.n + 2, max(spans, default=0))
    if N > MAX_PRECISION:
        raise PrecisionTooLarge(f"the crosscheck needs precision {N}, above the cap of "
                                f"{MAX_PRECISION}")

    realizer = shared_realizer(cert.context.algebra, N)
    agrees = realizer.agreement(run.states)
    step_rows = [(i, step.rule, ok) for i, (step, ok) in enumerate(zip(run.steps, agrees))]
    if run.failure is not None:
        step_rows.append((run.failure, cert.steps[run.failure].rule, False))
    final = realizer.at(run.states[-1].order).realize_state(cert.goal)
    return CrosscheckReport(N, tuple(step_rows), all(ok for _, _, ok in step_rows), not final)


def shared_realizer(algebra, precision):
    """The one ExtendedRealizer of the algebra at this precision."""
    return algebra.memo("realizer", precision, ExtendedRealizer, algebra, precision)


# -- certificate (de)serialization ----------------------------------------------


def _state_to_json(state):
    return [[str(c), [entry.atoms for entry in s.entries]] for c, s in state.terms]


def _write(value, out, indent=0):
    """Append value to out as json.dumps(value, indent=1, sort_keys=True)
    writes it, with one call per nesting level: strings through json's C
    encoder, a payload Symbol as {"symbol": its entries' atom lists} and an
    atom as its string.  A dict is read by its sorted items, so a loaded
    step's fields are written back as they are, never checked."""
    kind = value.__class__
    if kind is str or kind is LaurentPolynomial:
        out.append(encode_basestring_ascii(str(value)))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is Symbol:
        _write({"symbol": [entry.atoms for entry in value.entries]}, out, indent)
    elif not isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value))  # a bool, None or a float, by json's own rules
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    else:
        pad = "\n" + " " * (indent + 1)
        is_dict = isinstance(value, dict)
        sep = ("{" if is_dict else "[") + pad
        for item in sorted(value.items()) if is_dict else value:
            if is_dict:
                sep += encode_basestring_ascii(item[0]) + ": "
                item = item[1]
            out.append(sep)
            _write(item, out, indent + 1)
            sep = "," + pad
        out.append(pad[:-1] + ("}" if is_dict else "]"))


def certificate_to_json(cert):
    """The certificate's JSON: the bytes of json.dumps(doc, indent=1,
    sort_keys=True), written by _write."""
    doc = {
        "context": {
            "variables": cert.context.algebra.names,
            "relations": cert.context.algebra.spec.relations,
            "n": cert.context.n,
            "c": str(cert.context.c),
        },
        "claim": {
            "lhs": _state_to_json(cert.claim_lhs),
            "rhs": _state_to_json(cert.claim_rhs),
            "linkage": cert.linkage,
        },
        "start": _state_to_json(cert.start),
        "goal": _state_to_json(cert.goal),
        "steps": [{"rule": step.rule, "position": step.position, "payload": step.payload}
                  for step in cert.steps],
        "annotations": cert.annotations,
    }
    out = []
    _write(doc, out)
    return "".join(out)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _field(obj, key, kind, where=""):
    """obj[key], which the certificate format requires to be of JSON type `kind`.
    A JSON boolean is not an integer."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ParseError(f"certificate field {where}{key} must be {_JSON_TYPES[kind]}")
    return value


def certificate_from_json(text):
    """Load a certificate written by certificate_to_json.

    A document of the wrong shape raises ParseError.  A step that lacks a
    field its rule needs still loads; the checker rejects it at that step.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ParseError("certificate JSON is nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc)) from None
    except ValueError as exc:
        if "int_max_str_digits" not in str(exc):  # not an integer past the digit limit
            raise
        raise ParseError("certificate JSON has an integer past the interpreter's digit limit "
                         f"of {sys.get_int_max_str_digits()}") from None
    ctx = _field(doc, "context", dict)
    variables = _field(ctx, "variables", list, "context.")
    relations = _field(ctx, "relations", list, "context.")
    if not all(isinstance(x, str) for x in variables + relations):
        raise ParseError("certificate fields context.variables and context.relations "
                         "must hold strings")
    n = _field(ctx, "n", int, "context.")
    if n < 1:
        raise ParseError("certificate field context.n must be >= 1")
    c = _field(ctx, "c", str, "context.")
    claim = _field(doc, "claim", dict)
    linkage = _field(claim, "linkage", str, "claim.")
    raw_states = (_field(doc, "start", list), _field(doc, "goal", list),
                  _field(claim, "lhs", list, "claim."), _field(claim, "rhs", list, "claim."))
    raw_steps = _field(doc, "steps", list)
    for i, raw in enumerate(raw_steps):
        for key, kind in (("rule", str), ("position", dict), ("payload", dict)):
            _field(raw, key, kind, f"steps[{i}].")
    annotations = _field(doc, "annotations", list) if "annotations" in doc else []
    if not all(isinstance(a, str) for a in annotations):
        raise ParseError("certificate field annotations must hold strings")
    algebra = build_algebra(AlgebraSpec(tuple(variables), tuple(relations)))
    parsed = {}  # each atom string met, to its LaurentPolynomial: immutable, so shared

    def atoms(data):
        """(polynomial, exponent) pairs.  An atom string is parsed once per
        document."""
        if not (isinstance(data, list) and all(isinstance(a, list) and len(a) == 2 for a in data)):
            raise ParseError(f"certificate atoms {quote(data)} are not [string, integer] pairs")
        pairs = []
        for text, exp in data:
            if not isinstance(text, str):
                raise ParseError(f"certificate atom {quote(text)} is not a string")
            if text not in parsed:
                parsed[text] = LaurentPolynomial.from_string(algebra, text)
            if not _is_int(exp):
                raise ParseError(f"certificate atom exponent {quote(exp)} is not an integer")
            pairs.append((parsed[text], exp))
        return pairs

    def symbol(data):
        if not isinstance(data, list):
            raise ParseError(f"certificate symbol {quote(data)} is not an array of atom arrays")
        return Symbol.from_atoms(algebra, (atoms(entry) for entry in data))

    def term(t):
        if not (isinstance(t, list) and len(t) == 2 and isinstance(t[1], list)
                and all(isinstance(entry, list) for entry in t[1])):
            raise ParseError(f"certificate state term {quote(t)} is not a [coefficient, symbol] pair")
        if not _is_rational(t[0]):
            raise ParseError(f"certificate coefficient {quote(t[0])} is not a rational string")
        return t[0], symbol(t[1])

    def payload(key, value):
        if isinstance(value, dict) and "symbol" in value:
            return symbol(value["symbol"])
        return atoms(value) if key == "atoms" else value

    steps = tuple(RewriteStep(raw["rule"], raw["position"],
                              {k: payload(k, v) for k, v in raw["payload"].items()})
                  for raw in raw_steps)
    start, goal, lhs, rhs = (SymbolCombination(algebra, 2, [term(t) for t in data])
                             for data in raw_states)
    return Certificate(CertContext(algebra, n, algebra.element(c)), start, goal, steps,
                       lhs, rhs, linkage, tuple(annotations))
