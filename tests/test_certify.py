import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest

from milnork import certify, kahler, suite
from milnork.algebra import Algebra, AlgebraSpec, build_algebra, truncated_extension
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
    default_precision,
    lift_laurent,
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
    PrecisionInsufficient,
    PrecisionTooLarge,
    SideConditionFailed,
)
from milnork.kahler import OmegaModule
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
        assert poly.coeffs[n] == -(n + 1) * c


def test_vanishing_claim_matches_spec_binomial(Q):
    cert = vanishing_certificate(Q, 1, 1)
    assert str(cert.goal) == "1*{(-sigma + 1), (-2*sigma + 1)}"


def test_crosscheck_agreement(Q, t2):
    for A, c, n in ((Q, 2, 1), (t2, "1+t", 2), (t2, 1, 1)):
        cert = vanishing_certificate(A, A.element(c), n)
        rep = crosscheck_dlog(cert)
        assert rep.all_agree
        assert rep.final_realization_zero
        assert rep.precision == default_precision(n)


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


def test_precision_insufficient(Q):
    cert = vanishing_certificate(Q, 1, 2)
    with pytest.raises(PrecisionInsufficient):
        crosscheck_dlog(cert, precision=3)


def test_precision_above_cap_builds_no_ring(Q, monkeypatch):
    monkeypatch.setattr(certify, "ExtendedRealizer", None)  # any realizer would fail
    cert = vanishing_certificate(Q, 1, 2)
    with pytest.raises(PrecisionTooLarge, match=f"above the cap of {MAX_PRECISION}"):
        crosscheck_dlog(cert, precision=100000)
    with pytest.raises(PrecisionTooLarge, match=r"the default 3\(n\+2\) at n = 41"):
        crosscheck_dlog(vanishing_certificate(Q, 1, 41))
    assert default_precision(40) <= MAX_PRECISION < default_precision(41)


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
    assert poly.coeffs[2] == t2.element(-3)
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
    # e.g. a Steinberg insert with a doubled coefficient
    assert outcomes == {"at_step": 43, "later": 13, "off_goal": 2}


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


def test_crosscheck_reads_final_zero_from_the_replay(t3_certs, monkeypatch):
    realized = Counter()
    realize = certify.ExtendedRealizer.realize_state
    monkeypatch.setattr(certify.ExtendedRealizer, "realize_state", lambda self, state: (
        realized.update([state.key()]), realize(self, state))[1])
    for cert in t3_certs:
        realized.clear()
        report = crosscheck_dlog(cert)
        # one realization per state, the goal's is the last state's
        assert sum(realized.values()) == len(cert.steps) + 1
        assert report.all_agree
    assert report.final_realization_zero
    # a chain that stops short realizes the goal on its own
    bad = t3_certs[1]._replace(steps=t3_certs[1].steps[:-1])
    realized.clear()
    report = crosscheck_dlog(bad)
    assert sum(realized.values()) == len(bad.steps) + 2 and realized[bad.goal.key()] == 1
    assert report.all_agree and report.final_realization_zero


def test_lift_laurent_appends_the_sigma_degree(t2):
    ring = truncated_extension(t2, "sigma", 4)
    poly = LaurentPolynomial(t2, {1: t2.one, 3: t2.element("2 - t")})
    assert lift_laurent(poly, ring) == ring.element("sigma + (2 - t)*sigma^3")
    assert lift_laurent(poly, ring, 1) == ring.element("1 + (2 - t)*sigma^2")
    with pytest.raises(PrecisionInsufficient):
        lift_laurent(LaurentPolynomial(t2, {4: t2.one}), ring)
    # only A's own coefficients carry over, not those of a copy with A's names
    twin = alg(["t"], ["t^2"])
    with pytest.raises(AlgebraMismatch):
        lift_laurent(LaurentPolynomial(twin, {0: twin.one}), ring)


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
    ]


@pytest.mark.parametrize("case", range(7))
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
    assert str(exc.value) == (f"term {Symbol.from_atoms(Q, two)} "
                              "not present in the working state")
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
