import hashlib
import importlib.util
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from milnork import certify, kahler, laurent, suite
from milnork.algebra import Algebra, AlgebraSpec, build_algebra, extension_name, truncated_extension
from milnork.certify import (
    MAX_PRECISION,
    CheckState,
    Replay,
    RewriteStep,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    check_step,
    crosscheck_dlog,
    lift_laurent,
    shared_realizer,
    splitting_certificate,
    vanishing_certificate,
    vanishing_from,
)
from milnork.errors import (
    AlgebraMismatch,
    NonUnitC,
    NotASplittingChain,
    ParseError,
    PositionInvalid,
    PrecisionTooLarge,
    SideConditionFailed,
)
from milnork.kahler import OmegaModule, map_form
from milnork.family import builtin_algebras
from milnork.laurent import (
    LaurentEntry,
    LaurentPolynomial,
    Symbol,
    SymbolCombination,
)
from milnork.milnor import SpanVerdict, unit_samples


def alg(variables, relations):
    return build_algebra(AlgebraSpec(tuple(variables), tuple(relations)))


@pytest.fixture(scope="module")
def Q():
    return alg([], [])


@pytest.fixture(scope="module")
def t2():
    return alg(["t"], ["t^2"])


def _state(A, *terms):
    return SymbolCombination(A, 2, list(terms))


def _entry(A, *atoms):
    return LaurentEntry(A, list(atoms))


def test_steinberg_step_spec_example(Q):
    # {-c s^(n+1), 1 + c s^(n+1)} dies by the Steinberg rule (c = 2, n = 1)
    c = Q.element(2)
    minus = LaurentPolynomial(Q, {2: -c})
    w = LaurentPolynomial.constant(Q, 1) + LaurentPolynomial(Q, {2: c})
    sym = Symbol((_entry(Q, (minus, 1)), _entry(Q, (w, 1))))
    state = _state(Q, (1, sym))
    out = check_step(CheckState(state),
                     RewriteStep("steinberg", {"term": 0}, {"mode": "remove"}))
    assert not out.state


def test_steinberg_rejects_bad_pair(Q):
    two = LaurentPolynomial.constant(Q, 2)
    three = LaurentPolynomial.constant(Q, 3)
    sym = Symbol((_entry(Q, (two, 1)), _entry(Q, (three, 1))))
    with pytest.raises(SideConditionFailed):
        check_step(CheckState(_state(Q, (1, sym))),
                   RewriteStep("steinberg", {"term": 0}, {"mode": "remove"}))


def test_entry_identity_step_spec_example(Q):
    # 1 - s - c s^(n+2) + c s^(n+1)  ==  (1-s)(1+c s^(n+1))   (c = 2, n = 1)
    c = Q.element(2)
    one = LaurentPolynomial.constant(Q, 1)
    sig = LaurentPolynomial.sigma(Q)
    w = one + LaurentPolynomial(Q, {2: c})
    combined = one - sig - LaurentPolynomial(Q, {3: c}) + LaurentPolynomial(Q, {2: c})
    sym = Symbol((_entry(Q, (combined, 1)), _entry(Q, (sig, 1))))
    out = check_step(CheckState(_state(Q, (1, sym))),
                     RewriteStep("entry_identity", {"term": 0, "slot": 0},
                                 {"atoms": [(one - sig, 1), (w, 1)]}))
    got = out.state.terms[0][1].entries[0]
    assert [exp for _, exp in got.atoms] == [1, 1]


def test_entry_identity_rejects_wrong_value(Q):
    one = LaurentPolynomial.constant(Q, 1)
    sig = LaurentPolynomial.sigma(Q)
    sym = Symbol((_entry(Q, (one - sig, 1)), _entry(Q, (sig, 1))))
    with pytest.raises(SideConditionFailed):
        check_step(CheckState(_state(Q, (1, sym))),
                   RewriteStep("entry_identity", {"term": 0, "slot": 0},
                               {"atoms": [(one + sig, 1)]}))


def test_bilinearity_split_spec_example(Q):
    one = LaurentPolynomial.constant(Q, 1)
    sig = LaurentPolynomial.sigma(Q)
    w = one + LaurentPolynomial(Q, {2: Q.element(2)})
    sym = Symbol((_entry(Q, (one - sig, 1), (w, 1)), _entry(Q, (sig, 1))))
    out = check_step(CheckState(_state(Q, (1, sym))),
                     RewriteStep("bilinearity", {"term": 0, "slot": 0},
                                 {"mode": "split", "at": 1}))
    assert len(out.state.terms) == 2
    firsts = sorted(str(s.entries[0]) for _, s in out.state.terms)
    assert firsts == ["(-sigma + 1)", "(2*sigma^2 + 1)"]


def test_position_guards(Q):
    one = LaurentPolynomial.constant(Q, 1)
    sig = LaurentPolynomial.sigma(Q)
    sym = Symbol((_entry(Q, (one - sig, 1)), _entry(Q, (sig, 1))))
    state = _state(Q, (1, sym))
    with pytest.raises(PositionInvalid):
        check_step(CheckState(state),
                   RewriteStep("steinberg", {"term": 5}, {"mode": "remove"}))
    with pytest.raises(PositionInvalid):
        check_step(CheckState(state),
                   RewriteStep("nonsense", {"term": 0}, {}))


def test_torsion_scale_pack_divides_exactly(Q):
    # packing m = 3 into the exponent leaves the coefficient 1/3, exactly: with
    # int coefficients a plain `coeff / m` would be a float
    two = LaurentPolynomial.constant(Q, 2)
    three = LaurentPolynomial.constant(Q, 3)
    sym = Symbol((_entry(Q, (two, 1)), _entry(Q, (three, 1))))
    out = check_step(CheckState(_state(Q, (1, sym))),
                     RewriteStep("torsion_scale", {"term": 0, "slot": 0},
                                 {"mode": "pack", "m": 3}))
    (coeff, packed), = out.state.terms
    assert type(coeff) is Fraction and coeff == Fraction(1, 3)
    assert packed.entries[0].atoms[0][1] == 3


def test_projection_requires_order_zero_atoms(Q):
    sig = LaurentPolynomial.sigma(Q)
    one = LaurentPolynomial.constant(Q, 1)
    sym = Symbol((_entry(Q, (sig, 1), ((one - sig), 1)), _entry(Q, (one - sig, 1))))
    with pytest.raises(SideConditionFailed):
        check_step(CheckState(_state(Q, (1, sym))),
                   RewriteStep("projection", {}, {"order": 2}))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_splitting_certificate_grid(Q, t2, n):
    for A, c in ((Q, Q.element(2)), (t2, t2.element("1+t"))):
        cert = splitting_certificate(A, c, n)
        verdict = check_certificate(cert)
        assert verdict.valid and verdict.claim_ok
        assert len(cert.steps) == 12


def test_splitting_rejects_non_unit_c(Q, t2):
    with pytest.raises(NonUnitC):
        splitting_certificate(Q, 0, 1)
    with pytest.raises(NonUnitC):
        vanishing_certificate(t2, t2.element("t"), 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vanishing_certificate_grid(Q, t2, n):
    for A, c in ((Q, Q.element(1)), (t2, t2.element("1+t"))):
        cert = vanishing_certificate(A, c, n)
        verdict = check_certificate(cert)
        assert verdict.valid and verdict.claim_ok
        # the final claim carries 1 - (n+1) c s^n
        claim_entry = cert.claim_lhs.terms[0][1].entries[1]
        poly = claim_entry.atoms[0][0]
        assert poly.coords[n] == -(n + 1) * c


def test_vanishing_claim_matches_spec_binomial(Q):
    cert = vanishing_certificate(Q, 1, 1)
    assert str(cert.goal) == "1*{(-sigma + 1), (-2*sigma + 1)}"


def test_crosscheck_agreement(Q, t2):
    for A, c, n in ((Q, 2, 1), (t2, "1+t", 2), (t2, 1, 1)):
        cert = vanishing_certificate(A, A.element(c), n)
        rep = crosscheck_dlog(cert)
        assert rep.all_agree
        assert rep.final_realization_zero
        assert rep.precision == 3 * (n + 2)


_T3 = (["t"], ["t^3"], "1 + t")
_XY_M4 = (["x", "y"], ["x^4", "x^3*y", "x^2*y^2", "x*y^3", "y^4"], "1 + x")


def _assert_realized_in_own_ring(cert, N):
    """Each truncated state, and the state before the projection, realized
    in A[s]/s^(n+2) is its form at the precision N read there through map_form."""
    A, n = cert.context.algebra, cert.context.n
    states = cert.replay.states
    first = next(i for i, st in enumerate(states) if st.order is not None)
    assert {st.order for st in states[first:]} == {n + 1}
    small = truncated_extension(A, extension_name(A), n + 2)
    for st in states[first - 1:]:
        assert (map_form(shared_realizer(A, N).realize_state(st.state), small)
                == shared_realizer(A, n + 1).realize_state(st.state))


@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("spec", [_T3, _XY_M4], ids=["t3", "xy_m4"])
def test_a_truncated_state_is_realized_in_its_own_ring(spec, n):
    """The crosscheck realizes a state truncated at s^(n+1) in A[s]/s^(n+2);
    the route it replaced realized it at the precision N and mapped the form."""
    variables, relations, c = spec
    A = alg(variables, relations)
    _assert_realized_in_own_ring(vanishing_certificate(A, A.element(c), n), 3 * (n + 2))


def test_an_atom_past_the_truncation_is_cut_where_it_is_realized():
    """A step after the projection inserts a symbol whose first entry, p * p^-1
    with p = 1 + s^2 + t s^20, collapses to 1.  p keeps its s-degree 20 in
    the truncated state, past A[s]/s^(n+2), where its lift drops it.  Only
    the Laurent states set the precision, so the crosscheck runs at 12, with
    the step rows of a realizer at 60."""
    A = alg(*_T3[:2])
    cert = vanishing_certificate(A, A.element(_T3[2]), 2)
    one, sig = LaurentPolynomial.constant(A, 1), LaurentPolynomial.sigma(A)
    p = one + LaurentPolynomial(A, {2: A.one, 20: A.element("t")})
    sym = Symbol.from_atoms(A, ([(p, 1), (p, -1)], [(one - sig, 1)]))
    cert = cert._replace(steps=cert.steps + (RewriteStep(
        "bilinearity", {}, {"mode": "insert", "coeff": "1", "symbol": sym, "slot": 0}),))
    _assert_realized_in_own_ring(cert, 60)
    report = crosscheck_dlog(cert)
    assert report.all_agree and report.steps[-1][1:] == ("bilinearity", True)
    assert report.precision == 12
    assert [ok for _, _, ok in report.steps] == shared_realizer(A, 60).agreement(
        cert.replay.states)


def test_the_claim_sides_are_not_realized():
    """Only the replay's states and the goal are realized, so only their
    atoms set the precision: a claim side of s-span 50 needs none."""
    A = alg(*_T3[:2])
    cert = vanishing_certificate(A, A.element(_T3[2]), 2)
    one = LaurentPolynomial.constant(A, 1)
    wide = one + LaurentPolynomial(A, {50: A.one})
    rhs = _state(A, (1, Symbol.from_atoms(A, ([(wide, 1)], [(one + one, 1)]))))
    assert crosscheck_dlog(cert._replace(claim_rhs=rhs)) == crosscheck_dlog(cert)


def test_repeated_crosscheck_builds_nothing(monkeypatch):
    """Everything a crosscheck derives from its algebra is built once, on the
    algebras' memos: each (table, key) is built once in the first crosscheck,
    and a second one at the same precision, of an equal certificate, builds
    no realizer, module or algebra, no new dlog and no memo entry at all."""
    A = alg(["x", "y"], ["x^2", "y^2"])
    first, second = (vanishing_certificate(A, A.element("1 + x"), 2) for _ in range(2))
    second.replay  # the checker's replay is the certificate's own
    builds, memo = Counter(), Algebra.memo
    monkeypatch.setattr(Algebra, "memo", lambda self, table, key, build, *args: memo(
        self, table, key, lambda: builds.update([(id(self), table, key)]) or build(*args)))
    report = crosscheck_dlog(first)
    assert report.all_agree and max(builds.values()) == 1
    assert {table for _, table, _ in builds} >= {"realizer", "derived", "omega", "dlog",
                                                 "entry_dlog", "term"}

    built = Counter()
    for cls in (certify.ExtendedRealizer, OmegaModule, Algebra):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _cls=cls, _init=init: (
            built.update([_cls.__name__]), _init(self, *args))[1])
    d = kahler.d
    monkeypatch.setattr(kahler, "d", lambda x: built.update(["d"]) or d(x))
    before = builds.copy()
    assert crosscheck_dlog(second) == report
    assert not built and builds == before


def test_crosscheck_tracks_laurent_only_chain(Q):
    cert = splitting_certificate(Q, 2, 1)
    rep = crosscheck_dlog(cert)
    assert rep.all_agree
    assert len(rep.steps) == len(cert.steps)


def test_corrupted_certificate_rejected_at_exact_step(Q):
    cert = vanishing_certificate(Q, 1, 1)
    idx = next(i for i, s in enumerate(cert.steps) if s.rule == "entry_identity")
    step = cert.steps[idx]
    bad_atoms = [(poly + LaurentPolynomial.constant(Q, 1), exp)
                 for poly, exp in step.payload["atoms"]]
    bad = cert._replace(steps=tuple(
        RewriteStep(s.rule, s.position, {**s.payload, "atoms": bad_atoms}) if i == idx else s
        for i, s in enumerate(cert.steps)))
    verdict = check_certificate(bad)
    assert not verdict.valid
    assert verdict.failure_index == idx
    assert (f"certificate.step.{idx:02d}", "entry_identity:FAIL") in verdict.record()
    rep = crosscheck_dlog(bad)
    assert not rep.all_agree
    assert rep.steps[-1][0] == idx and rep.steps[-1][2] is False


def test_failure_detail_in_record_only_when_invalid(Q):
    cert = vanishing_certificate(Q, 1, 1)
    assert not any(key == "certificate.failure_detail"
                   for key, _ in check_certificate(cert).record())
    idx = next(i for i, s in enumerate(cert.steps) if s.rule == "entry_identity")
    step = cert.steps[idx]
    bad_atoms = [(poly + LaurentPolynomial.constant(Q, 1), exp)
                 for poly, exp in step.payload["atoms"]]
    bad = cert._replace(steps=tuple(
        RewriteStep(s.rule, s.position, {**s.payload, "atoms": bad_atoms}) if i == idx else s
        for i, s in enumerate(cert.steps)))
    verdict = check_certificate(bad)
    assert not verdict.valid and verdict.failure_index == idx
    rows = verdict.record()
    keys = [key for key, _ in rows]
    assert keys.count("certificate.failure_detail") == 1
    at = keys.index("certificate.failure_index")
    assert rows[at + 1] == ("certificate.failure_detail", verdict.failure_detail)
    assert "entry_identity" in verdict.failure_detail


def _wide_certificate(span, second=None):
    """A loaded Q[t]/t^3 certificate at n = 2 that inserts the Steinberg symbol
    {1 + sigma^span, -sigma^span}, whose first atom has sigma-span `span`,
    and then removes it, or applies the step `second` instead."""
    first = [[[f"sigma^{span} + 1", 1]], [[f"-sigma^{span}", 1]]]
    insert = {"rule": "steinberg", "position": {},
              "payload": {"mode": "insert", "coeff": "1", "symbol": {"symbol": first}}}
    remove = {"rule": "steinberg", "position": {"term": 0}, "payload": {"mode": "remove"}}
    return certificate_from_json(json.dumps({
        "context": {"variables": ["t"], "relations": ["t^3"], "n": 2, "c": "1 + t"},
        "claim": {"lhs": [], "rhs": [], "linkage": "direct"}, "start": [], "goal": [],
        "steps": [insert, second or remove]}))


def test_the_precision_is_three_times_the_widest_laurent_span():
    """N = 3 * max(n + 2, span): an atom of sigma-span 20 in a Laurent state
    sets N = 60 at n = 2, where 3(n + 2) is 12."""
    cert = _wide_certificate(20)
    assert check_certificate(cert).valid
    assert crosscheck_dlog(cert) == (60, ((0, "steinberg", True), (1, "steinberg", True)),
                                     True, True)
    assert crosscheck_dlog(_wide_certificate(1)).precision == 12


def test_a_corrupted_step_disagrees_at_the_computed_precision():
    """A second step the replay rejects, an insert of {1 + sigma^20, sigma^20},
    reads DISAGREE; the inserted span-20 atom still sets N = 60."""
    bad = [[["sigma^20 + 1", 1]], [["sigma^20", 1]]]
    cert = _wide_certificate(20, {"rule": "steinberg", "position": {}, "payload": {
        "mode": "insert", "coeff": "1", "symbol": {"symbol": bad}}})
    verdict = check_certificate(cert)
    assert not verdict.valid and verdict.failure_index == 1
    report = crosscheck_dlog(cert)
    assert report.precision == 60 and not report.all_agree
    assert report.steps == ((0, "steinberg", True), (1, "steinberg", False))


def test_precision_above_cap_builds_no_ring(Q, monkeypatch):
    """A span of 43 or a level of 41 sets N = 129, over the cap of 128: the
    crosscheck refuses it before building any ring."""
    monkeypatch.setattr(certify, "ExtendedRealizer", None)  # any realizer would fail
    assert 3 * 42 <= MAX_PRECISION < 3 * 43
    for cert in (_wide_certificate(43), vanishing_certificate(Q, 1, 41)):
        with pytest.raises(PrecisionTooLarge, match=r"^the crosscheck needs precision 129, "
                                                    f"above the cap of {MAX_PRECISION}$"):
            crosscheck_dlog(cert)


def test_certificate_json_round_trip(t2):
    cert = vanishing_certificate(t2, t2.element("1+t"), 2)
    text = certificate_to_json(cert)
    loaded = certificate_from_json(text)
    assert certificate_to_json(loaded) == text
    verdict = check_certificate(loaded)
    assert verdict.valid
    assert crosscheck_dlog(loaded).all_agree


def _atom_pairs(node):
    """Every [text, exponent] atom pair of a certificate document, in place."""
    if isinstance(node, dict):
        for value in node.values():
            yield from _atom_pairs(value)
    elif isinstance(node, list):
        if len(node) == 2 and isinstance(node[0], str) and type(node[1]) is int:
            yield node
        else:
            for value in node:
                yield from _atom_pairs(value)


def test_certificate_json_parses_each_atom_string_once(monkeypatch):
    m2 = alg(["x", "y"], ["x^2", "x*y", "y^2"])
    text = certificate_to_json(vanishing_certificate(m2, m2.element("1 + x"), 2))
    atoms = [pair[0] for pair in _atom_pairs(json.loads(text))]
    assert len(atoms) > len(set(atoms)), "the document should repeat atom strings"
    parsed, from_string = [], LaurentPolynomial.from_string
    monkeypatch.setattr(LaurentPolynomial, "from_string", staticmethod(
        lambda algebra, atom: parsed.append(atom) or from_string(algebra, atom)))
    loaded = certificate_from_json(text)
    assert sorted(parsed) == sorted(set(atoms))
    assert certificate_to_json(loaded) == text


def test_certificate_json_repeated_malformed_atom_raises_the_same_parse_error(t2):
    doc = json.loads(certificate_to_json(vanishing_certificate(t2, t2.element("1+t"), 2)))
    (common, count), = Counter(pair[0] for pair in _atom_pairs(doc)).most_common(1)
    assert count > 1
    bad = "1 + (t"
    with pytest.raises(ParseError) as direct:
        LaurentPolynomial.from_string(t2, bad)
    for pair in _atom_pairs(doc):
        if pair[0] == common:
            pair[0] = bad
    with pytest.raises(ParseError) as loaded:
        certificate_from_json(json.dumps(doc))
    assert str(loaded.value) == str(direct.value)


def test_only_an_integer_past_the_digit_limit_is_named_so():
    """Bytes that are not UTF-8 raise json's UnicodeDecodeError, a ValueError
    that the loader does not call an over-long integer."""
    with pytest.raises(UnicodeDecodeError):
        certificate_from_json(b'{"context": "\xff"}')
    with pytest.raises(ParseError, match="an integer past the interpreter's digit limit"):
        certificate_from_json(b'{"context": ' + b"9" * 5000 + b"}")


def test_the_digit_limit_of_the_loader_is_the_interpreters():
    # a literal of exactly the limit loads, one digit more is refused, a sign
    # is not a digit, and a limit of 0 refuses none
    limit = sys.get_int_max_str_digits()
    for literal in ("9" * limit, "-" + "9" * limit):
        with pytest.raises(ParseError, match="field context must be an object"):
            certificate_from_json('{"context": ' + literal + "}")
    with pytest.raises(ParseError, match="digit limit"):
        certificate_from_json('{"context": -' + "9" * (limit + 1) + "}")
    try:
        sys.set_int_max_str_digits(0)
        with pytest.raises(ParseError, match="field context must be an object"):
            certificate_from_json('{"context": ' + "9" * (limit + 1) + "}")
    finally:
        sys.set_int_max_str_digits(limit)


def test_certificate_annotations_mention_projection_assumption(Q):
    cert = vanishing_certificate(Q, 1, 1)
    assert any("Kerz" in note for note in cert.annotations)
    assert any("factorization" in note for note in cert.annotations)


def test_verdict_records_deterministic(t2):
    cert = vanishing_certificate(t2, t2.element("1+t"), 2)
    assert check_certificate(cert).record() == check_certificate(cert).record()
    assert crosscheck_dlog(cert).record() == crosscheck_dlog(cert).record()


def test_minus_one_coefficient(Q, t2):
    # c = -1 must not collide with the sign-helper term in the chain
    for A, c in ((Q, -1), (t2, "-1"), (t2, "-1-t")):
        cert = vanishing_certificate(A, A.element(c), 1)
        assert check_certificate(cert).valid
        assert crosscheck_dlog(cert).all_agree


def test_binomial_identity_instance(t2):
    # (1 - s^2)^3 = 1 - 3 s^2 mod s^3 drives the n = 2, c = 1 chain
    cert = vanishing_certificate(t2, 1, 2)
    assert check_certificate(cert).valid
    poly = cert.goal.terms[0][1].entries[1].atoms[0][0]
    assert poly.coords[2] == t2.element(-3)
    assert crosscheck_dlog(cert).final_realization_zero


@pytest.fixture(scope="module")
def t3_certs():
    t3 = alg(["t"], ["t^3"])
    c = t3.element("1+t")
    return splitting_certificate(t3, c, 2), vanishing_certificate(t3, c, 2)


def test_a_replaced_certificate_replays_its_own_steps(t3_certs):
    """_replace copies the fields, not the cached replay: a copy with one
    corrupted step fails at that step, and the original keeps its builder's run."""
    eq8 = t3_certs[1]
    run = eq8.replay
    idx = next(i for i, s in enumerate(eq8.steps) if s.rule == "entry_identity")
    step = eq8.steps[idx]
    one = LaurentPolynomial.constant(eq8.context.algebra, 1)
    bad_step = RewriteStep(step.rule, step.position, {
        **step.payload, "atoms": [(poly + one, exp) for poly, exp in step.payload["atoms"]]})
    bad = eq8._replace(steps=eq8.steps[:idx] + (bad_step,) + eq8.steps[idx + 1:])
    assert bad.replay is not run and bad.replay.failure == idx
    assert check_certificate(bad).failure_index == idx
    assert eq8.replay is run and run.failure is None and check_certificate(eq8).valid


def test_record_fields_are_read_only(t3_certs):
    for record, field in ((SpanVerdict(1, 2, False, (0,)), "rank"),
                          (AlgebraSpec(("t",), ("t^3",)), "relations"),
                          (t3_certs[1], "steps")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def _mutants(step):
    """Every single-field perturbation that fits the step."""
    pos, pay = dict(step.position), dict(step.payload)
    out = []
    if "coeff" in pay:
        out.append((pos, {**pay, "coeff": str(Fraction(pay["coeff"]) * 2)}))
    if "atoms" in pay:
        (poly, exp), *rest = pay["atoms"]
        out.append((pos, {**pay, "atoms": [(poly, exp + 1)] + rest}))
    for key in ("m", "order"):
        if key in pay:
            out.append((pos, {**pay, key: pay[key] + 1}))
    if "term" in pos:
        out.append(({**pos, "term": pos["term"] + 1}, pay))
    if "slot" in pos:
        out.append(({**pos, "slot": 1 - pos["slot"]}, pay))
    return [RewriteStep(step.rule, p, q) for p, q in out]


def test_every_step_mutation_is_caught(t3_certs):
    outcomes = {"at_step": 0, "later": 0, "off_goal": 0}
    for cert in t3_certs:
        for i, step in enumerate(cert.steps):
            for bad_step in _mutants(step):
                bad = cert._replace(steps=cert.steps[:i] + (bad_step,) + cert.steps[i + 1:])
                verdict = check_certificate(bad)
                assert not verdict.valid, (i, bad_step)
                rows = crosscheck_dlog(bad).steps
                failure = verdict.failure_index
                if failure is None:
                    assert not verdict.final_matches_goal
                    assert all(ok for _, _, ok in rows)
                    outcomes["off_goal"] += 1
                    continue
                assert failure >= i
                assert all(ok for _, _, ok in rows[:failure]), (i, bad_step)
                assert rows[failure:] == ((failure, bad.steps[failure].rule, False),)
                outcomes["at_step" if failure == i else "later"] += 1
    # a later rejection means the mutated step was itself a sound rewrite,
    # e.g. a Steinberg insert with a doubled coefficient; a projection to
    # order n + 2 is refused at its own step, as only n + 1 is the context's
    assert outcomes == {"at_step": 44, "later": 12, "off_goal": 2}


def test_check_step_runs_once_per_step(t3_certs, monkeypatch):
    calls = []
    real = certify.check_step

    def counting(cstate, step):
        calls.append(step.rule)
        return real(cstate, step)

    monkeypatch.setattr(certify, "check_step", counting)
    t3 = t3_certs[0].context.algebra
    c = t3.element("1+t")
    for builder, steps in ((splitting_certificate, 12), (vanishing_certificate, 16)):
        calls.clear()
        cert = builder(t3, c, 2)
        assert check_certificate(cert).valid and crosscheck_dlog(cert).all_agree
        assert len(calls) == len(cert.steps) == steps
        loaded = certificate_from_json(certificate_to_json(cert))
        assert check_certificate(loaded).valid and crosscheck_dlog(loaded).all_agree
        assert len(calls) == 2 * steps


def _counting_check_step(monkeypatch):
    calls = []
    real = certify.check_step
    monkeypatch.setattr(certify, "check_step",
                        lambda cstate, step: calls.append(step.rule) or real(cstate, step))
    return calls


def test_suite_checks_each_eq7_chain_once(monkeypatch):
    # eq8 extends the eq7 certificate's replay, so its 12 shared steps are
    # not checked again: 69 triples * 12 fewer calls than the 2,436 of a
    # suite that builds eq8 from scratch
    calls = _counting_check_step(monkeypatch)
    assert all(ok for _, ok in suite.certify_checks())
    assert len(calls) == 1608


# sha256 of certificate_to_json over the suite's 69 (algebra, n, c) triples,
# eq7 and eq8 in turn, recorded before eq8 was built from eq7
SUITE_EQ7_SHA = "1a9f7654690a5ea37e3f1f06b3f8833c47418d8a225441bcf709abbfc9c6e86c"
SUITE_EQ8_SHA = "641e6f3914298789650c266b83ae3efd9e69b91f1d45c3b4fbd2decc50fe1f79"


def test_suite_certificates_keep_their_bytes():
    eq7, eq8, extended = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    triples = 0
    for _, A in builtin_algebras():
        for n in (1, 2, 3):
            for c in unit_samples(A):
                cert7 = splitting_certificate(A, c, n)
                text7 = certificate_to_json(cert7)
                eq7.update(text7.encode())
                eq8.update(certificate_to_json(vanishing_certificate(A, c, n)).encode())
                extended.update(certificate_to_json(vanishing_from(cert7)).encode())
                assert certificate_to_json(cert7) == text7
                triples += 1
    assert triples == 69
    assert eq7.hexdigest() == SUITE_EQ7_SHA
    assert eq8.hexdigest() == extended.hexdigest() == SUITE_EQ8_SHA


def test_extension_leaves_the_eq7_certificate_alone(t3_certs, monkeypatch):
    cert7 = t3_certs[0]
    run7 = cert7.replay
    states, steps, text = list(run7.states), list(run7.steps), certificate_to_json(cert7)
    calls = _counting_check_step(monkeypatch)
    cert8 = vanishing_from(cert7)
    assert calls == ["projection", "entry_factor", "torsion_scale", "entry_identity"]
    assert cert7.replay is run7 and run7.states == states and run7.steps == steps
    assert certificate_to_json(cert7) == text
    assert cert8.steps[:12] == cert7.steps and cert8.replay.states[:13] == states
    # the new steps reuse the eq7 goal's own polynomials rather than copies
    one_m_s = cert7.goal.terms[0][1].entries[0].atoms[0][0]
    assert cert8.steps[13].payload["atoms"][0][0] is one_m_s
    assert certificate_to_json(cert8) == certificate_to_json(t3_certs[1])
    assert check_certificate(cert8).valid and crosscheck_dlog(cert8).final_realization_zero


def test_a_loaded_eq7_certificate_extends_like_a_built_one(t3_certs):
    loaded = certificate_from_json(certificate_to_json(t3_certs[0]))
    cert8 = vanishing_from(loaded)
    assert check_certificate(cert8).valid
    assert certificate_to_json(cert8) == certificate_to_json(t3_certs[1])


def _not_extensible(t3_certs, case):
    eq7, eq8 = t3_certs
    if case == "eq8":
        return eq8
    if case == "not_direct":
        return eq7._replace(linkage="vanishing_start")
    doc = json.loads(certificate_to_json(eq7))
    if case == "corrupted_step":
        # torsion_scale unpacks by 3 where 2 divides the exponent: step 2 fails
        doc["steps"][2]["payload"]["m"] = 3
    else:  # off_goal: a valid chain whose goal is not the one it reaches
        doc["goal"][0][0] = "4"
    return certificate_from_json(json.dumps(doc))


@pytest.mark.parametrize("case", ["eq8", "not_direct", "corrupted_step", "off_goal"])
def test_extension_refuses_what_is_not_a_checked_eq7_chain(t3_certs, case):
    cert = _not_extensible(t3_certs, case)
    with pytest.raises(NotASplittingChain) as exc:
        vanishing_from(cert)
    assert str(exc.value) == "only a checked eq7 chain that reaches its goal extends to eq8"


def test_crosscheck_realizes_each_state_then_the_goal(t3_certs, monkeypatch):
    realized = Counter()
    realize = certify.ExtendedRealizer.realize_state
    monkeypatch.setattr(certify.ExtendedRealizer, "realize_state", lambda self, state: (
        realized.update([state.key()]), realize(self, state))[1])
    for cert in t3_certs:
        realized.clear()
        report = crosscheck_dlog(cert)
        # one realization per state, then the goal's, though it is the last state
        assert sum(realized.values()) == len(cert.steps) + 2 and realized[cert.goal.key()] == 2
        assert report.all_agree
    assert report.final_realization_zero
    # a chain that stops short realizes the same count, the goal once
    bad = t3_certs[1]._replace(steps=t3_certs[1].steps[:-1])
    realized.clear()
    report = crosscheck_dlog(bad)
    assert sum(realized.values()) == len(bad.steps) + 2 and realized[bad.goal.key()] == 1
    assert report.all_agree and report.final_realization_zero


def _counting_realize_state(monkeypatch):
    realized = []
    realize = certify.ExtendedRealizer.realize_state
    monkeypatch.setattr(certify.ExtendedRealizer, "realize_state",
                        lambda self, state: realized.append(state) or realize(self, state))
    return realized


def test_eq8_crosscheck_does_not_depend_on_earlier_crosschecks(monkeypatch):
    """The crosscheck keeps nothing between calls: an extended eq8 certificate
    gives the same report and realizes each state and then the goal, with or
    without an eq7 crosscheck before it, twice in a row and after a reload,
    and its step rows are those of a realizer at a wider precision."""
    t3 = alg(["t"], ["t^3"])
    realized = _counting_realize_state(monkeypatch)

    def crosscheck(cert):
        realized.clear()
        report = crosscheck_dlog(cert)
        assert len(realized) == len(cert.steps) + 2
        return report

    report8 = crosscheck(vanishing_certificate(t3, t3.element("1+t"), 2))
    assert report8.all_agree and report8.final_realization_zero
    assert [row[0] for row in report8.steps] == list(range(16))
    cert7 = splitting_certificate(t3, t3.element("1+t"), 2)
    assert crosscheck(cert7).all_agree
    cert8 = vanishing_from(cert7)
    assert crosscheck(cert8) == report8
    assert crosscheck(cert8) == report8
    assert crosscheck(certificate_from_json(certificate_to_json(cert8))) == report8
    wider = shared_realizer(t3, 13).agreement(cert8.replay.states)
    assert wider == [ok for _, _, ok in report8.steps] and all(wider)
    assert crosscheck(cert8) == report8


def test_a_corrupted_extension_step_still_disagrees(monkeypatch):
    """A _replace copy of an extended eq8 certificate replays its own steps,
    even after the original's eq7 and eq8 crosschecks: a corrupted extension
    step reads DISAGREE there."""
    t3 = alg(["t"], ["t^3"])
    cert7 = splitting_certificate(t3, t3.element("1+t"), 2)
    crosscheck_dlog(cert7)
    cert8 = vanishing_from(cert7)
    crosscheck_dlog(cert8)
    idx = max(i for i, s in enumerate(cert8.steps) if s.rule == "entry_identity")
    assert idx > len(cert7.steps)
    step = cert8.steps[idx]
    one = LaurentPolynomial.constant(t3, 1)
    bad_step = RewriteStep(step.rule, step.position, {
        **step.payload, "atoms": [(poly + one, exp) for poly, exp in step.payload["atoms"]]})
    bad = cert8._replace(steps=cert8.steps[:idx] + (bad_step,))
    realized = _counting_realize_state(monkeypatch)
    report = crosscheck_dlog(bad)
    assert report.steps[idx] == (idx, "entry_identity", False) and not report.all_agree
    assert all(ok for _, _, ok in report.steps[:idx])
    assert len(realized) == idx + 2  # every accepted state, then the goal
    assert report.record()[3 + idx] == (f"crosscheck.step.{idx:02d}", "entry_identity:DISAGREE")


@pytest.fixture(scope="module")
def suite_certify_work():
    """suite.certify_checks() once, counting its element products by 1 and
    its realized states."""
    by_one, realized = [], []
    product, realize = Algebra._product, certify.ExtendedRealizer.realize_state

    def counted_product(self, left, left_layout, right, right_layout, cells, width):
        if any(layout is self._scalars and coords == {0: 1}
               for coords, layout in ((left, left_layout), (right, right_layout))):
            by_one.append(None)
        return product(self, left, left_layout, right, right_layout, cells, width)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Algebra, "_product", counted_product)
        patch.setattr(certify.ExtendedRealizer, "realize_state",
                      lambda self, state: realized.append(None) or realize(self, state))
        assert all(ok for _, ok in suite.certify_checks())
    return len(by_one), len(realized)


def test_suite_certify_multiplies_nothing_by_one(suite_certify_work):
    # 12,606 of the 20,700 products multiplied by 1 before a factor 1 was handed back
    assert suite_certify_work[0] == 0


def test_suite_certify_realizes_each_state_once_per_crosscheck(suite_certify_work):
    # 2,139 while the eq8 crosscheck resumed where the eq7 one ended; without
    # that record the 69 triples realize their 13 shared states again (3,036),
    # and each of their 138 crosschecks, which reach the goal, realizes it too
    assert suite_certify_work[1] == 3174


def test_lift_laurent_appends_the_sigma_degree(t2):
    ring = truncated_extension(t2, "sigma", 4)
    poly = LaurentPolynomial(t2, {1: t2.one, 3: t2.element("2 - t")})
    assert lift_laurent(poly, ring) == ring.element("sigma + (2 - t)*sigma^3")
    assert lift_laurent(poly, ring, 1) == ring.element("1 + (2 - t)*sigma^2")


def _rejections(Q):
    """(start state, order, step, error, message): one case per checker refusal."""
    one = LaurentPolynomial.constant(Q, 1)
    sig = LaurentPolynomial.sigma(Q)
    two = LaurentPolynomial.constant(Q, 2)
    three = LaurentPolynomial.constant(Q, 3)
    plain = Symbol((_entry(Q, (one - sig, 1)), _entry(Q, (two, 1))))
    pair = Symbol((_entry(Q, (two, 1), (three, 1)), _entry(Q, (one - sig, 1))))
    empty = _state(Q)
    return [
        (_state(Q, (1, plain)), 2, RewriteStep("projection", {}, {"order": 2}),
         SideConditionFailed, "projection applies only once, from the Laurent ring"),
        (empty, None, RewriteStep("steinberg", {}, {"mode": "insert", "coeff": "1",
                                                    "symbol": plain}),
         SideConditionFailed, f"steinberg: inserted symbol {plain} fails the side condition"),
        (_state(Q, (1, plain)), None,
         RewriteStep("bilinearity", {"term": 0, "slot": 1}, {"mode": "kill"}),
         SideConditionFailed, "kill: designated entry does not collapse to 1"),
        (empty, None, RewriteStep("bilinearity", {}, {"mode": "insert", "coeff": "1",
                                                      "symbol": plain, "slot": 1}),
         SideConditionFailed, "insert: designated entry does not collapse to 1"),
        (_state(Q, (1, pair)), None, RewriteStep("inverse_negation", {"term": 0, "slot": 0}, {}),
         PositionInvalid, "inverse_negation wants a single-atom entry"),
        (_state(Q, (1, pair)), None,
         RewriteStep("torsion_scale", {"term": 0, "slot": 0}, {"mode": "pack", "m": 2}),
         PositionInvalid, "torsion_scale wants a single-atom entry"),
        (_state(Q, (1, plain)), None,
         RewriteStep("torsion_scale", {"term": 0, "slot": 1}, {"mode": "unpack", "m": 0}),
         SideConditionFailed, "torsion_scale factor must be a positive integer"),
        # the numbers in a detail are quoted: a short one prints as it is, a
        # long one as its first 60 digits and its length (all 401 digits before)
        (_state(Q, (1, plain)), None,
         RewriteStep("torsion_scale", {"term": 0, "slot": 1}, {"mode": "unpack", "m": 10 ** 400}),
         SideConditionFailed, f"exponent 1 not divisible by {_BIG}"),
        (_state(Q, (1, pair)), None,
         RewriteStep("bilinearity", {"term": 0, "slot": 0}, {"mode": "split", "at": 10 ** 400}),
         PositionInvalid, f"cannot split 2 atoms at {_BIG}"),
        (_state(Q, (10 ** 400, plain), (Fraction(1, 2), pair)), None,
         RewriteStep("bilinearity", {"term": 0, "term2": 1, "slot": 0}, {"mode": "merge"}),
         SideConditionFailed, f"merge: coefficients {_BIG} and 1/2 differ"),
    ]


_BIG = "1" + "0" * 59 + "… (401 characters)"  # 10^400, quoted


@pytest.mark.parametrize("case", range(10))
def test_checker_refusals_name_their_condition(Q, case):
    state, order, step, error, message = _rejections(Q)[case]
    with pytest.raises(error) as exc:
        check_step(CheckState(state, order), step)
    assert str(exc.value) == message


def test_replay_rewrite_names_terms_by_their_atom_lists(Q):
    one_m_s = LaurentPolynomial.constant(Q, 1) - LaurentPolynomial.sigma(Q)
    two, three = (([(one_m_s, 1)], [(LaurentPolynomial.constant(Q, k), 1)]) for k in (2, 3))
    start = _state(Q, *((1, Symbol.from_atoms(Q, atoms)) for atoms in (two, three)))
    run = Replay(start)
    run.rewrite("bilinearity", {"term": three, "term2": two, "slot": 1}, {"mode": "merge"})
    (step,) = run.steps
    assert step.position == {"term": start.find(Symbol.from_atoms(Q, three).key()),
                             "term2": start.find(Symbol.from_atoms(Q, two).key()), "slot": 1}
    # a term the working state lacks is refused, and no step is recorded
    with pytest.raises(PositionInvalid) as exc:
        run.rewrite("bilinearity", {"term": two, "slot": 1}, {"mode": "kill"})
    assert str(exc.value) == "step field 'term' has a bad value: None"
    assert run.steps == [step]


def _unlinked(Q, case):
    """A certificate whose chain reaches its goal but whose claim it does not justify."""
    if case == "start_not_visibly_zero":
        # one projection step; no entry of the projected start collapses to 1
        one = LaurentPolynomial.constant(Q, 1)
        sig = LaurentPolynomial.sigma(Q)
        start = _state(Q, (1, Symbol((_entry(Q, (one - sig, 1)),
                                      _entry(Q, (one - sig - sig, 1))))))
        return certify.Certificate(certify.CertContext(Q, 1, Q.one), start, start,
                                   (RewriteStep("projection", {}, {"order": 2}),),
                                   start, _state(Q), "vanishing_start")
    eq7, eq8 = splitting_certificate(Q, 2, 1), vanishing_certificate(Q, 1, 1)
    return {
        "unknown_linkage": eq8._replace(linkage="transitive"),
        "nonzero_rhs": eq8._replace(claim_rhs=eq8.goal),
        "no_projection": eq7._replace(linkage="vanishing_start", claim_lhs=eq7.goal,
                                      claim_rhs=_state(Q)),
    }[case]


@pytest.mark.parametrize("case", ["unknown_linkage", "nonzero_rhs", "no_projection",
                                  "start_not_visibly_zero"])
def test_unjustified_claim_linkage_is_refused(Q, case):
    verdict = check_certificate(_unlinked(Q, case))
    assert verdict.failure_index is None and verdict.final_matches_goal
    assert verdict.claim_ok is False and verdict.valid is False


# -- the certificate writer ---------------------------------------------------


def _reference_doc(cert):
    """The certificate's document in plain JSON values, as the file format
    describes it: atoms as [string, exponent], a payload symbol as
    {"symbol": its entries' atom lists}, every other field as it is."""
    def atoms(pairs):
        return [[str(poly), exp] for poly, exp in pairs]

    def symbol(sym):
        return [atoms(entry.atoms) for entry in sym.entries]

    def state(comb):
        return [[str(c), symbol(sym)] for c, sym in comb.terms]

    def payload(key, value):
        if isinstance(value, Symbol):
            return {"symbol": symbol(value)}
        return atoms(value) if key == "atoms" else value

    A = cert.context.algebra
    return {
        "context": {"variables": list(A.names), "relations": list(A.spec.relations),
                    "n": cert.context.n, "c": str(cert.context.c)},
        "claim": {"lhs": state(cert.claim_lhs), "rhs": state(cert.claim_rhs),
                  "linkage": cert.linkage},
        "start": state(cert.start),
        "goal": state(cert.goal),
        "steps": [{"rule": step.rule, "position": step.position,
                   "payload": {k: payload(k, v) for k, v in step.payload.items()}}
                  for step in cert.steps],
        "annotations": list(cert.annotations),
    }


def _ladder_certificates(seed):
    """The certify-ladder benchmark's certificates at this seed, built."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for job in workloads.certify_inputs(seed)["jobs"]:
        A = build_algebra(workloads._spec(job["algebra"]))
        builder = getattr(certify, workloads.CERT_BUILDERS[job["eq"]])
        yield builder(A, job["c"], job["n"])


def test_ladder_certificates_are_written_as_json_dumps_writes_them():
    certs = list(_ladder_certificates(5))
    assert len(certs) == 30
    for cert in certs:
        text = certificate_to_json(cert)
        assert text == json.dumps(_reference_doc(cert), indent=1, sort_keys=True)
        assert certificate_to_json(certificate_from_json(text)) == text


# step fields the checker never reads, of every JSON kind, and a position of
# the wrong type, which a read by key would refuse
ODD_FIELDS = {"yes": True, "no": False, "none": None, "half": 1.5, "minus_zero": -0.0,
              "huge": 1e300, "text": "Milnor–Kähler \"K₂\"\n\t\\ é \u2028 \U0001d53d",
              "empty_object": {}, "empty_array": [],
              "nested": {"b": [1, {"a": [[], {}], "c": None}], "a": {"z": 0.25, "y": "\x00"}}}


def test_loaded_odd_fields_are_written_as_json_dumps_writes_them(t2):
    doc = json.loads(certificate_to_json(vanishing_certificate(t2, t2.element("1+t"), 2)))
    for step in doc["steps"]:
        step["payload"].update(ODD_FIELDS)
        step["position"]["extra"] = ODD_FIELDS["nested"]
    doc["steps"][0]["position"]["term"] = "x"
    loaded = certificate_from_json(json.dumps(doc))
    with pytest.raises(PositionInvalid):
        loaded.steps[0].position["term"]
    assert certificate_to_json(loaded) == json.dumps(doc, indent=1, sort_keys=True)


def _written(value):
    out = []
    certify._write(value, out)
    return "".join(out)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=25)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(value=_JSON_VALUES)
def test_the_writer_writes_what_json_dumps_writes(value):
    assert _written(value) == json.dumps(value, indent=1, sort_keys=True)


def _atoms_of(cert):
    """Every atom object of the certificate's states and step payloads."""
    entries = [entry for comb in (cert.start, cert.goal, cert.claim_lhs, cert.claim_rhs)
               for _, sym in comb.terms for entry in sym.entries]
    pairs = [pair for entry in entries for pair in entry.atoms]
    for step in cert.steps:
        for key, value in step.payload.items():
            if isinstance(value, Symbol):
                pairs += [pair for entry in value.entries for pair in entry.atoms]
            elif key == "atoms":
                pairs += value
    return {id(poly): poly for poly, _ in pairs}


def _counting_polynomial_str(monkeypatch):
    calls, real = [], laurent.polynomial_str
    monkeypatch.setattr(laurent, "polynomial_str",
                        lambda p, names: calls.append(p) or real(p, names))
    return calls


def test_each_atom_is_printed_once(monkeypatch):
    m2 = alg(["x", "y"], ["x^2", "x*y", "y^2"])
    cert = vanishing_certificate(m2, m2.element("1 + x"), 2)
    calls = _counting_polynomial_str(monkeypatch)
    text = certificate_to_json(cert)
    atoms = _atoms_of(cert)
    assert len(calls) == len(atoms) < sum(text.count(str(p)) for p in atoms.values())
    assert certificate_to_json(cert) == text
    str(cert.claim_lhs), str(cert.claim_rhs)  # the CLI's claim rows
    assert len(calls) == len(atoms)


def test_a_loaded_atom_is_printed_from_its_value_not_its_text(t2, monkeypatch):
    """An atom written 1+t loads, and saves as t + 1: the loader keeps no text."""
    text = certificate_to_json(vanishing_certificate(t2, t2.element("1+t"), 2))
    assert '"t + 1"' in text
    loaded = certificate_from_json(text.replace('"t + 1"', '"1+t"'))
    calls = _counting_polynomial_str(monkeypatch)
    assert certificate_to_json(loaded) == text
    assert len(calls) == len(_atoms_of(loaded))
