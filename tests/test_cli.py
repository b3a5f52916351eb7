import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from milnork import certify, cli, kahler, milnor
from milnork.cli import main, parse_algebra_file
from milnork.errors import MilnorkError, ParseError
from milnork.laurent import EXPANSION_BUDGET, LaurentPolynomial
from milnork.towers import parse_tower_file


@pytest.fixture()
def t3_spec(tmp_path):
    path = tmp_path / "t3.spec"
    path.write_text("variables: t\nrelations: t^3\n")
    return str(path)


@pytest.fixture()
def q_spec(tmp_path):
    path = tmp_path / "q.spec"
    path.write_text("variables:\nrelations:\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_algebra_file_keys():
    spec = parse_algebra_file("variables: t, sigma\nrelations: t^2\nsigma: sigma\norder: 3\n")
    assert spec.variables == ("t", "sigma")
    assert "sigma^3" in spec.relations
    assert spec.distinguished == "sigma"
    with pytest.raises(MilnorkError):
        parse_algebra_file("variables: t\norder: 2\n")
    with pytest.raises(MilnorkError):
        parse_algebra_file("bad line")


def test_omega_command(capsys, t3_spec):
    code, out = run(capsys, "omega", "--algebra", t3_spec, "--p", "1", "--format", "record")
    assert code == 0
    assert "omega.dim=2" in out


def test_omega_degree_zero_is_the_algebra(capsys, t3_spec):
    code, out = run(capsys, "omega", "--algebra", t3_spec, "--p", "0", "--format", "record")
    assert (code, out) == (0, "report=omega^0\nomega.p=0\nomega.dim=3\nomega.basis=1;t;t^2\n")


def test_omega_rejects_negative_p(capsys, t3_spec):
    code, _ = run(capsys, "omega", "--algebra", t3_spec, "--p", "-1")
    assert code == 2


def test_usage_error_exit_2(capsys):
    assert main(["omega"]) == 2
    assert main(["no-such-command"]) == 2


def test_missing_file_exit_2(capsys):
    code, _ = run(capsys, "omega", "--algebra", "/nonexistent.spec", "--p", "1")
    assert code == 2


@pytest.mark.parametrize("command, flag, data, position", [
    ("algebra-info", "--algebra", b"variables: t\nrelations: t^3 # \xff\n", 30),
    ("tower", "--tower", b"dims: 1\n\xff\n", 8),
    ("certify-eq8", "--load", b'{"context": "\xff"}', 13),
], ids=["spec", "tower", "certificate"])
def test_an_input_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, command, flag, data,
                                                         position):
    path = tmp_path / "input"
    path.write_bytes(data)
    code = main([command, flag, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", f"input error: 'utf-8' codec can't decode byte 0xff in position {position}: "
               "invalid start byte\n")


def test_an_engine_value_error_is_a_bug_not_an_input_error(t3_spec, monkeypatch):
    """main answers only OSError and the milnork errors; a ValueError from the
    engine escapes with its traceback."""
    def broken(A, p):
        raise ValueError("engine invariant")
    monkeypatch.setattr(cli, "omega_module", broken)
    with pytest.raises(ValueError, match="engine invariant"):
        main(["omega", "--algebra", t3_spec, "--p", "1"])


def test_repeated_variable_names_exit_2(capsys, tmp_path):
    # the one check of repeated names, for a spec and for A[s]/s^N alike
    spec = tmp_path / "tt.spec"
    spec.write_text("variables: t, t\nrelations: t^3\n")
    code = main(["algebra-info", "--algebra", str(spec)])
    captured = capsys.readouterr()
    assert (code, captured.err.splitlines()[0], len(captured.out)) == (
        2, "input error: variable names must be unique", 0)


def test_bad_algebra_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("variables: x\nrelations: x^2 - x\n")
    code, _ = run(capsys, "algebra-info", "--algebra", str(bad))
    assert code == 2


def test_spec_file_blank_lines_and_comments_are_skipped(capsys, tmp_path):
    # the README's example spec, with blank and comment-only lines added
    plain = tmp_path / "plain.spec"
    plain.write_text("variables: t, sigma\nrelations: t^2, sigma^3, t*sigma\n"
                     "sigma: sigma\norder: 3\n")
    commented = tmp_path / "commented.spec"
    commented.write_text("# t and the distinguished sigma\n\nvariables: t, sigma\n"
                         "relations: t^2, sigma^3, t*sigma\n   \n"
                         "sigma: sigma      # optional: designates the (last) distinguished "
                         "variable\n# next: the truncation\n"
                         "order: 3          # optional: appends the relation sigma^3\n\n")
    assert parse_algebra_file(commented.read_text()) == parse_algebra_file(plain.read_text())
    outs = [run(capsys, "algebra-info", "--algebra", str(path), "--format", "record")
            for path in (plain, commented)]
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_algebra_info(capsys, t3_spec):
    code, out = run(capsys, "algebra-info", "--algebra", t3_spec, "--format", "record")
    assert code == 0
    assert "algebra.dimension=3" in out
    assert "algebra.basis=1;t;t^2" in out


def test_decomposition_domain_exit_2(capsys, t3_spec):
    code = main(["decomposition", "--algebra", t3_spec, "--n", "0", "--p", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "input error: need n >= 1 and p >= 1\n")


def test_decomposition_command(capsys, t3_spec):
    code, out = run(capsys, "decomposition", "--algebra", t3_spec, "--n", "2", "--p", "2",
                    "--format", "record")
    assert code == 0
    assert "decomposition.verdict=corrected" in out


def test_phi_and_theorem2(capsys, t3_spec):
    code, out = run(capsys, "phi", "--algebra", t3_spec, "--n", "1", "--p", "2",
                    "--format", "record")
    assert code == 0
    assert "phi.count=" in out
    code, out = run(capsys, "theorem2", "--algebra", t3_spec, "--n", "1", "--p", "2",
                    "--format", "record")
    assert code == 0
    assert "span.spans=true" in out


def test_tangent_span(capsys, t3_spec):
    code, out = run(capsys, "tangent-span", "--algebra", t3_spec, "--p", "2",
                    "--format", "record")
    assert code == 0
    assert "span.spans=true" in out


def test_span_into_a_zero_module_realizes_nothing(capsys, t3_spec, monkeypatch):
    # Omega^6 of Q[t]/t^3 is 0: neither command realizes any of its thousands
    # of generators
    realized = []
    for name in ("tangent_realize", "relative_realize"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real: realized.append(a) or real(*a))
    code, out = run(capsys, "tangent-span", "--algebra", t3_spec, "--p", "7",
                    "--format", "record")
    assert code == 0 and "span.rank=0\nspan.dim=0\nspan.spans=true" in out
    code, out = run(capsys, "theorem2", "--algebra", t3_spec, "--n", "2", "--p", "7",
                    "--format", "record")
    assert code == 0 and "span.dim=0" in out and "theorem2.generators=13312" in out
    assert realized == []


def test_degree_one_verdicts(capsys, t3_spec):
    # at p = 1 the family is {1 + c s^n} over the coefficient grid, realized
    # in Omega^0 = A as c itself
    code, out = run(capsys, "theorem2", "--algebra", t3_spec, "--n", "2", "--p", "1",
                    "--format", "record")
    assert (code, out) == (0, "report=relative-realization\nspan.rank=3\nspan.dim=3\n"
                              "span.spans=true\nspan.certificate=0,1,2\n"
                              "theorem2.generators=3\n")
    code, out = run(capsys, "phi", "--algebra", t3_spec, "--n", "1", "--p", "1",
                    "--format", "record")
    assert (code, out) == (0, "report=relative-generators\nphi.n=1\nphi.p=1\nphi.count=3\n"
                              "phi.gen.000=1*{sigma + 1}\nphi.gen.001=1*{t*sigma + 1}\n"
                              "phi.gen.002=1*{t^2*sigma + 1}\n")
    for argv in (["theorem2", "--n", "2"], ["phi", "--n", "1"], ["tangent-span"]):
        assert run(capsys, *argv, "--algebra", t3_spec, "--p", "0")[0] == 2


def test_families_over_an_algebra_with_a_sigma_variable(capsys, tmp_path):
    # the extension variable takes the first free name, here eps; the
    # tangent-span verdicts are those of the eps extension used before
    spec = tmp_path / "sigma.spec"
    spec.write_text("variables: t, sigma\nrelations: t^2, sigma^3, t*sigma\n")
    for p, rank, witnesses in (("1", 4, "0,1,2,3"), ("2", 4, "0,1,2,6"), ("3", 1, "1")):
        code, out = run(capsys, "tangent-span", "--algebra", str(spec), "--p", p,
                        "--format", "record")
        assert (code, out) == (0, f"report=tangent-span\nspan.rank={rank}\nspan.dim={rank}\n"
                                  f"span.spans=true\nspan.certificate={witnesses}\n")
    code, out = run(capsys, "theorem2", "--algebra", str(spec), "--n", "1", "--p", "2",
                    "--format", "record")
    assert code == 0 and "span.certificate=0,1,2,6\ntheorem2.generators=21\n" in out
    code, out = run(capsys, "phi", "--algebra", str(spec), "--n", "1", "--p", "1",
                    "--format", "record")
    assert code == 0 and "phi.gen.000=1*{eps + 1}\n" in out


def test_s0_names_s_when_sigma_and_eps_are_variables(capsys, tmp_path):
    # extension_name falls back to s0; a certificate saved in s0 loads back
    spec = tmp_path / "sigma_eps.spec"
    spec.write_text("variables: t, sigma, eps\n"
                    "relations: t^2, sigma^2, eps^2, t*sigma, t*eps, sigma*eps\n")
    code, out = run(capsys, "phi", "--algebra", str(spec), "--n", "1", "--p", "1",
                    "--format", "record")
    assert code == 0 and "phi.gen.000=1*{s0 + 1}\n" in out
    saved = tmp_path / "cert.json"
    code, out = run(capsys, "certify-eq8", "--algebra", str(spec), "--c", "2", "--n", "2",
                    "--format", "record", "--save", str(saved))
    assert code == 0 and "certificate.claim_lhs=1*{(-s0 + 1), (-6*s0^2 + 1)}\n" in out
    assert "certificate.valid=true\n" in out and "crosscheck.all_agree=true\n" in out
    code, reloaded = run(capsys, "certify-eq8", "--load", str(saved), "--format", "record")
    assert (code, reloaded) == (0, out.replace(f"certificate.saved={saved}\n", ""))


@pytest.fixture(scope="module")
def t3_spec_shared(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "t3.spec"
    path.write_text("variables: t\nrelations: t^3\n")
    return str(path)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 31))
def test_families_into_a_zero_module_build_no_symbol(t3_spec_shared, p):
    # Omega^(p-1) of Q[t]/t^3 is 0 for p >= 3, so neither command reads its
    # family; theorem2 counts 3 * 4^(p-1) + 4^(p-2) generators without them
    # (p = 31 is the largest p whose count len() can return)
    built = []
    real = milnor.Symbol

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    milnor.Symbol = counting
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["tangent-span", "--algebra", t3_spec_shared, "--p", str(p),
                         "--format", "record"]) == 0
            assert main(["theorem2", "--algebra", t3_spec_shared, "--n", "2", "--p", str(p),
                         "--format", "record"]) == 0
    finally:
        milnor.Symbol = real
    assert built == []
    assert out.getvalue().count("span.rank=0\nspan.dim=0\nspan.spans=true\n") == 2
    assert f"theorem2.generators={3 * 4 ** (p - 1) + 4 ** (p - 2)}\n" in out.getvalue()


def test_certify_commands(capsys, q_spec, tmp_path):
    code, out = run(capsys, "certify-eq7", "--algebra", q_spec, "--c", "2", "--n", "1",
                    "--format", "record")
    assert code == 0
    assert "certificate.valid=true" in out
    assert "crosscheck.all_agree=true" in out

    saved = tmp_path / "cert.json"
    code, out = run(capsys, "certify-eq8", "--algebra", q_spec, "--c", "1", "--n", "1",
                    "--format", "record", "--save", str(saved))
    assert code == 0
    assert "crosscheck.final_zero=true" in out

    # round trip through the serializer, then check the loaded certificate
    code, out = run(capsys, "certify-eq8", "--load", str(saved), "--format", "record")
    assert code == 0
    assert "certificate.valid=true" in out


def test_certify_valid_but_disagreeing_crosscheck_exit_1(capsys, q_spec, monkeypatch):
    monkeypatch.setattr(cli, "crosscheck_dlog", lambda cert: (
        certify.CrosscheckReport(6, ((0, "steinberg", False),), False, True)))
    code, out = run(capsys, "certify-eq7", "--algebra", q_spec, "--c", "2", "--n", "1",
                    "--format", "record")
    assert code == 1
    assert "certificate.valid=true\n" in out
    assert "crosscheck.all_agree=false\n" in out
    assert "crosscheck.step.00=steinberg:DISAGREE\n" in out


def _short_span(targets, module):
    return milnor.SpanVerdict(1, 2, False, (0,))


@pytest.mark.parametrize("argv, name, verdict, row", [
    (["theorem2", "--n", "1", "--p", "2"], "span_check", _short_span, "span.spans=false\n"),
    (["tangent-span", "--p", "2"], "span_check", _short_span, "span.spans=false\n"),
    (["tau", "--n", "2"], "transport_check",
     lambda A, n: milnor.TransportReport(n, 3, 3, True, True, 0, 1, False, False, 1),
     "tau.compatible=false\n"),
    (["decomposition", "--n", "2", "--p", "2"], "decomposition_report",
     lambda A, n, p: kahler.DecompositionReport(n, p, 5, None, 4, 6, "neither"),
     "decomposition.verdict=neither\n"),
], ids=["theorem2", "tangent-span", "tau", "decomposition"])
def test_failing_verdict_exit_1(capsys, t3_spec, monkeypatch, argv, name, verdict, row):
    monkeypatch.setattr(cli, name, verdict)
    code, out = run(capsys, argv[0], "--algebra", t3_spec, *argv[1:], "--format", "record")
    assert code == 1 and row in out


def test_suite_with_a_failed_check_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda name: ([("a", True), ("b", False)], 1, 1))
    code, out = run(capsys, "suite", "towers", "--format", "record")
    assert code == 1
    assert "check.b=fail\n" in out and "summary.failed=1\n" in out


def test_usage_error_before_reading_the_spec(capsys):
    code = main(["omega", "--algebra", "/nonexistent.spec", "--p", "-1"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "usage error: --p must be nonnegative\n")


def test_certify_needs_args(capsys, q_spec):
    code, _ = run(capsys, "certify-eq7", "--algebra", q_spec)
    assert code == 2


def test_certify_precision_override(capsys, q_spec):
    # --precision 12 set the crosscheck's N; the crosscheck works it out, and
    # the option is gone
    code, out = run(capsys, "certify-eq7", "--algebra", q_spec, "--c", "2", "--n", "1",
                    "--format", "record")
    assert code == 0 and "crosscheck.precision=9\n" in out
    assert main(["certify-eq7", "--algebra", q_spec, "--c", "2", "--n", "1",
                 "--precision", "12"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "unrecognized arguments: --precision 12" in captured.err


def _stationary(doc, state, path):
    """doc with start, goal and both claim sides `state`, and no steps, at path."""
    doc.update(start=state, goal=state, steps=[],
               claim={"lhs": state, "rhs": state, "linkage": "direct"})
    path.write_text(json.dumps(doc))
    return str(path)


def test_precision_requirement_is_the_one_it_quotes(capsys, tmp_path, t3_eq8_doc):
    # N = 3 * max(n + 2, span) at n = 2: the N a verdict reports, or the one
    # the refusal quotes; span 20 exited 2 with "precision 12 too small for
    # atoms of sigma-span 20; need at least 60"
    for span, code, message in (
            (0, 0, ""), (20, 0, ""),
            (43, 2, "input error: the crosscheck needs precision 129, above the cap of 128\n")):
        state = [["1", [[[f"1 + sigma^{span}", 1]], [["1 + t", 1]]]]]
        path = _stationary(t3_eq8_doc, state, tmp_path / "still.json")
        assert main(["certify-eq8", "--load", path, "--format", "record"]) == code
        captured = capsys.readouterr()
        assert captured.err == message
        if code == 0:
            for row in ("certificate.valid=true", f"crosscheck.precision={3 * max(4, span)}",
                        "crosscheck.all_agree=true"):
                assert row + "\n" in captured.out


def test_an_empty_certificate_is_crosschecked_at_3_n_plus_2(capsys, tmp_path, t3_eq8_doc):
    # no atom at all: max() of the spans alone raised ValueError
    path = _stationary(t3_eq8_doc, [], tmp_path / "empty.json")
    code, out = run(capsys, "certify-eq8", "--load", path, "--format", "record")
    assert code == 0
    for row in ("certificate.valid=true", "crosscheck.precision=12", "crosscheck.all_agree=true",
                "crosscheck.final_zero=true"):
        assert row + "\n" in out


def test_a_projection_needs_precision_n_plus_one(capsys, tmp_path, t3_eq8_doc):
    # atoms of sigma-span 1, but a truncated state is read in A[s]/s^(n+2),
    # which the realizer's A[s]/s^(N+1) must map onto: N = 3(n + 2) = 36 >= n + 1
    # at n = 10, where --precision 3 or 10 exited 2 and 11 was the least it took
    state = [["1", [[["1 - sigma", 1]], [["1 + t", 1]]]]]
    t3_eq8_doc["context"]["n"] = 10
    t3_eq8_doc.update(start=state, goal=state, claim={"lhs": state, "rhs": state,
                                                      "linkage": "direct"},
                      steps=[{"rule": "projection", "position": {}, "payload": {"order": 11}}])
    path = tmp_path / "projected.json"
    path.write_text(json.dumps(t3_eq8_doc))
    code = main(["certify-eq8", "--load", str(path), "--format", "record"])
    captured = capsys.readouterr()
    assert (code, captured.err, len(captured.out)) == (0, "", 365)
    assert "certificate.valid=true\n" in captured.out
    assert "crosscheck.precision=36\n" in captured.out


def test_certify_precision_above_cap_exit_2(capsys, t3_spec, monkeypatch):
    monkeypatch.setattr(certify, "ExtendedRealizer", None)  # rejected before any ring
    code = main(["certify-eq7", "--algebra", t3_spec, "--c", "1+t", "--n", "41"])
    assert code == 2
    assert capsys.readouterr().err == ("input error: the crosscheck needs precision 129, above "
                                       f"the cap of {certify.MAX_PRECISION}\n")


@pytest.mark.parametrize("argv", [
    ["theorem2", "--n", "1", "--p", "32"],
    ["theorem2", "--n", "1", "--p", "100"],
    ["phi", "--n", "1", "--p", "40"],
])
def test_a_family_longer_than_len_counts_is_an_input_error(capsys, t3_spec, argv):
    # each exited 1, the code of a short rank, with OverflowError: cannot fit
    # 'int' into an index-sized integer
    code = main([argv[0], "--algebra", t3_spec] + argv[1:])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"input error: degree p = {argv[-1]} makes more generators than "
                            f"the limit of {sys.maxsize}\n")


def test_certify_non_unit_c_exit_2(capsys, tmp_path):
    spec = tmp_path / "t2.spec"
    spec.write_text("variables: t\nrelations: t^2\n")
    code, _ = run(capsys, "certify-eq7", "--algebra", str(spec), "--c", "t", "--n", "1")
    assert code == 2


def test_certify_negative_c_needs_equals(capsys, t3_spec):
    # argparse reads a separate value that starts with '-' as an option
    code, out = run(capsys, "certify-eq7", "--algebra", t3_spec, "--c=-1+t", "--n", "1",
                    "--format", "record")
    assert code == 0 and "certificate.valid=true" in out
    code, _ = run(capsys, "certify-eq7", "--algebra", t3_spec, "--c", "-1+t", "--n", "1")
    assert code == 2


def test_certify_rejects_corrupted_file(capsys, q_spec, tmp_path):
    saved = tmp_path / "cert.json"
    assert run(capsys, "certify-eq8", "--algebra", q_spec, "--c", "1", "--n", "1",
               "--save", str(saved))[0] == 0
    doc = json.loads(saved.read_text())
    for step in doc["steps"]:
        if step["rule"] == "entry_identity":
            step["payload"]["atoms"][0][0] += " + 1"
            break
    saved.write_text(json.dumps(doc))
    code, out = run(capsys, "certify-eq8", "--load", str(saved), "--format", "record")
    assert code == 1
    assert "certificate.valid=false" in out


def _saved_doc(capsys, q_spec, tmp_path):
    saved = tmp_path / "cert.json"
    assert run(capsys, "certify-eq8", "--algebra", q_spec, "--c", "1", "--n", "1",
               "--save", str(saved))[0] == 0
    return json.loads(saved.read_text())


def _load_code(capsys, tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["certify-eq8", "--load", str(path), "--format", "record"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certificate_missing_context_fields_exit_2(capsys, tmp_path):
    code, _, err = _load_code(capsys, tmp_path, {"context": {"variables": ["t"]}})
    assert code == 2 and "context.relations" in err


def test_certificate_not_an_object_exit_2(capsys, tmp_path):
    code, _, err = _load_code(capsys, tmp_path, [1, 2])
    assert code == 2 and "input error" in err


def _load_text(capsys, tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code = main(["certify-eq8", "--load", str(path), "--format", "record"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("text, first_line", [
    # json's own message, as before
    ("{'context': 1}", "input error: Expecting property name enclosed in double quotes: "
                       "line 1 column 2 (char 1)"),
    # was Python's digit-limit message, which names sys.set_int_max_str_digits()
    ('{"context": {"n": ' + "9" * 5000 + "}}",
     "input error: certificate JSON has an integer past the interpreter's digit limit of 4300"),
], ids=["syntax", "long-integer"])
def test_certificate_json_the_loader_cannot_read_is_a_parse_error(capsys, tmp_path, text,
                                                                   first_line):
    code, out, err = _load_text(capsys, tmp_path, text)
    assert (code, err.splitlines()[0], len(out)) == (2, first_line, 0)
    assert len(err.encode()) < 200


def _t3_c1_doc(capsys, tmp_path, t3_spec):
    """The saved eq8 certificate of Q[t]/t^3 at c = 1, n = 1."""
    saved = tmp_path / "e8.json"
    assert run(capsys, "certify-eq8", "--algebra", t3_spec, "--c", "1", "--n", "1",
               "--save", str(saved))[0] == 0
    return json.loads(saved.read_text())


@pytest.mark.parametrize("cut", [False, True])
def test_a_step_past_the_digit_limit_fails_at_that_step(capsys, tmp_path, t3_spec, cut):
    # its pack by 2 (step 14) replaced by two packs by 10^4000: the second
    # makes an atom exponent of 8,001 digits.  Both documents used to exit 2
    # with Python's digit-limit message, from the over-budget detail of step
    # 16, or from state == goal when cut there.
    doc = _t3_c1_doc(capsys, tmp_path, t3_spec)
    assert doc["steps"][14]["payload"] == {"m": 2, "mode": "pack"}
    doc["steps"][14]["payload"]["m"] = 10 ** 4000
    doc["steps"][14:15] = [doc["steps"][14], json.loads(json.dumps(doc["steps"][14]))]
    if cut:
        del doc["steps"][16:]
    code, out, err = _load_code(capsys, tmp_path, doc)
    assert (code, err, len(out)) == (1, "", 901 if cut else 941)
    assert ("certificate.valid=false\ncertificate.failure_index=15\n"
            "certificate.failure_detail=an atom exponent has more than the interpreter's "
            "limit of 4300 digits\n") in out
    assert "certificate.step.15=torsion_scale:FAIL\n" in out


@pytest.mark.parametrize("where, code, first_line, size", [
    ("claim", 2, "input error: a coefficient has more than the interpreter's limit of 4300 digits",
     0),
    ("inserts", 1, "", 961),
])
def test_a_merged_coefficient_past_the_digit_limit_is_refused(capsys, tmp_path, t3_spec, where,
                                                              code, first_line, size):
    # two terms of one symbol, each of a legal 4,300-digit coefficient, merge
    # into 4,301 digits; both documents used to exit 2 with Python's message
    doc = _t3_c1_doc(capsys, tmp_path, t3_spec)
    if where == "claim":
        sym = doc["claim"]["lhs"][0][1]
        doc["claim"]["lhs"] = [["BIG", sym], ["BIG", sym]]
    else:
        step = doc["steps"][0]
        assert (step["rule"], step["payload"]["mode"]) == ("steinberg", "insert")
        step["payload"]["coeff"] = "BIG"
        doc["steps"][0:1] = [step, step]
    code_, out, err = _load_text(capsys, tmp_path, json.dumps(doc).replace("BIG", "9" * 4300))
    assert (code_, (err.splitlines() or [""])[0], len(out)) == (code, first_line, size)
    if where == "inserts":
        assert ("certificate.valid=false\ncertificate.failure_index=1\n"
                "certificate.failure_detail=a coefficient has more than the interpreter's "
                "limit of 4300 digits\n") in out


def test_an_over_budget_sum_past_the_digit_limit_is_named_not_printed(capsys, tmp_path, t3_spec):
    # two atoms of 4,300-digit exponents: their total exponent has 4,301
    # digits, and printing it in the detail used to exit 2 with Python's message
    doc = _t3_c1_doc(capsys, tmp_path, t3_spec)
    step = doc["steps"][10]
    assert step["rule"] == "entry_identity"
    step["payload"]["atoms"] = [["1 + t", "BIG"], ["1 - t", "BIG"]]
    code, out, err = _load_text(capsys, tmp_path, json.dumps(doc).replace('"BIG"', "9" * 4300))
    assert (code, err, len(out)) == (1, "", 1042)
    assert "certificate.failure_index=10\n" in out
    # the expanded entry is quoted: it was printed whole, 8,618 characters
    assert "=expanding (t + 1)^" + "9" * 52 + "… (8618 characters) spans 0 " in out
    assert (" spans 0 sigma-degrees with total exponent a number past the interpreter's digit "
            "limit, over the budget of 128\n") in out


_LONG_SIGMA_POWER = "(sigma^{0})^{0}".format(10 ** 2200)


_BIG_RELATIONS = ["x^2 - 2^20000*y^2", "x*y", "y^3"]
_BIG_SPECS = {
    "algebra-info": f"variables: x, y\nrelations: {', '.join(_BIG_RELATIONS)}\n",
    "tau": f"variables: x, y, s\nrelations: {', '.join(_BIG_RELATIONS)}, s^2, x*s, y*s\n"
           "sigma: s\n",
}


@pytest.mark.parametrize("where, quoted", [
    ("--c", "'2^20000'"),
    ("context.c", "'2^20000'"),
    ("claim.lhs", f"{_LONG_SIGMA_POWER[:60]!r}… (4411 characters)"),
    ("algebra-info", "'x^2 - 2^20000*y^2'"),
    ("tau", "'x^2 - 2^20000*y^2'"),
    ("context.relations", "'x^2 - 2^20000*y^2'"),
])
def test_an_input_value_past_the_digit_limit_is_refused_where_it_is_read(capsys, tmp_path,
                                                                          t3_spec, where, quoted):
    # a value no literal spells: 2^20000 has 6,021 digits, and (sigma^N)^N with
    # N = 10^2200 the sigma-degree 10^4400, which no span charge bounds.  Each
    # exited 2 with Python's digit-limit message while the report printed; a
    # loaded context.c was valid (exit 0) and failed only on --save.  A spec
    # relation did so under algebra-info and tau, which print the Groebner
    # basis; a loaded context.relations was valid (exit 0)
    spec = tmp_path / "big.spec"
    argv = {"--c": ["certify-eq7", "--algebra", t3_spec, "--c", "2^20000", "--n", "1"],
            "algebra-info": ["algebra-info", "--algebra", str(spec)],
            "tau": ["tau", "--algebra", str(spec), "--n", "1"]}
    if where in argv:
        if where in _BIG_SPECS:
            spec.write_text(_BIG_SPECS[where])
        code = main(argv[where])
        captured = capsys.readouterr()
        out, err = captured.out, captured.err
    else:
        doc = _t3_c1_doc(capsys, tmp_path, t3_spec)
        if where == "context.c":
            doc["context"]["c"] = "2^20000"
        elif where == "context.relations":
            doc["context"].update(variables=["x", "y"], relations=_BIG_RELATIONS)
        else:
            doc["claim"]["lhs"] = [["1", [[[_LONG_SIGMA_POWER, 1]], [["1 + t", 1]]]]]
        code, out, err = _load_code(capsys, tmp_path, doc)
    assert (code, err.splitlines()[0], len(out)) == (
        2, f"input error: a number in {quoted} has more than the interpreter's limit of "
           "4300 digits", 0)


@pytest.mark.parametrize("where", ["--c", "context.c", "claim atom"])
def test_a_constant_power_past_the_digit_limit_is_refused_before_it_is_built(
        capsys, tmp_path, t3_spec, where):
    # 3^100000000 has 47,712,126 digits; building it ran for minutes.  A
    # power of 2 of that size was refused in 0.5 s only because it is cheap
    value = "3^100000000"
    if where == "--c":
        start = time.perf_counter()
        code = main(["certify-eq7", "--algebra", t3_spec, "--c", value, "--n", "1"])
        captured = capsys.readouterr()
        out, err = captured.out, captured.err
    else:
        doc = _t3_c1_doc(capsys, tmp_path, t3_spec)
        if where == "context.c":
            doc["context"]["c"] = value
        else:
            doc["claim"]["lhs"] = [["1", [[[value, 1]], [["1 + t", 1]]]]]
        start = time.perf_counter()
        code, out, err = _load_code(capsys, tmp_path, doc)
    assert time.perf_counter() - start < 1
    assert (code, err.splitlines()[0], len(out)) == (
        2, f"input error: a number in '{value}' has more than the interpreter's limit of "
           "4300 digits", 0)


def test_certificate_position_list_exit_2(capsys, q_spec, tmp_path):
    doc = _saved_doc(capsys, q_spec, tmp_path)
    doc["steps"][0]["position"] = [0]
    code, _, err = _load_code(capsys, tmp_path, doc)
    assert code == 2 and "steps[0].position" in err


def test_certificate_step_missing_mode_fails_at_step(capsys, q_spec, tmp_path):
    doc = _saved_doc(capsys, q_spec, tmp_path)
    idx = next(i for i, s in enumerate(doc["steps"]) if s["rule"] == "bilinearity")
    del doc["steps"][idx]["payload"]["mode"]
    code, out, _ = _load_code(capsys, tmp_path, doc)
    assert code == 1
    assert "certificate.valid=false" in out
    assert f"certificate.failure_index={idx}" in out


def test_tau_command(capsys, tmp_path):
    spec = tmp_path / "b.spec"
    spec.write_text("variables: t, sigma\nrelations: t^2, sigma^3, t*sigma\nsigma: sigma\n")
    code, out = run(capsys, "tau", "--algebra", str(spec), "--n", "2", "--format", "record")
    assert code == 0
    assert "tau.surjective=true" in out
    assert "tau.compatible=true" in out


def test_tau_needs_a_sigma_variable(capsys, t3_spec):
    code = main(["tau", "--algebra", t3_spec, "--n", "2"])
    captured = capsys.readouterr()
    assert (code, captured.err.splitlines()[0], len(captured.out)) == (
        2, "input error: the algebra does not designate a sigma variable", 0)


def test_tau_not_multiplicative_exit_1(capsys, tmp_path):
    # over Q[t,s]/(t^2 - s, s^2) with sigma = s, tau(t) * tau(t) = s is not tau(t^2) = 0
    spec = tmp_path / "b.spec"
    spec.write_text("variables: t, s\nrelations: t^2 - s, s^2\nsigma: s\n")
    code, out = run(capsys, "tau", "--algebra", str(spec), "--n", "2", "--format", "record")
    assert (code, out) == (1, "report=tau-transport\ntau.n=2\ntau.base_dim=4\ntau.target_dim=4\n"
                              "tau.surjective=true\ntau.multiplicative=false\ntau.kernel_dim=2\n"
                              "tau.tensor_target_dim=0\ntau.compatible=true\ntau.degenerate=true\n"
                              "tau.samples=0\n")


def test_tower_command(capsys, tmp_path):
    tower = tmp_path / "t.tower"
    tower.write_text("dims: 2, 2, 2\nmap 0: 1, 0; 0, 1\nmap 1: 1, 0; 0, 1\n")
    code, out = run(capsys, "tower", "--tower", str(tower), "--format", "record")
    assert code == 0
    assert "limit.dim=2" in out
    assert "limit.stabilized=true" in out


def test_output_file(capsys, t3_spec, tmp_path):
    target = tmp_path / "report.txt"
    code, out = run(capsys, "omega", "--algebra", t3_spec, "--p", "1",
                    "--format", "record", "--output", str(target))
    assert code == 0 and out == ""
    assert "omega.dim=2" in target.read_text()


def test_suite_towers_deterministic(capsys):
    code1, out1 = run(capsys, "suite", "towers", "--format", "record")
    code2, out2 = run(capsys, "suite", "towers", "--format", "record")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "summary.failed=0" in out1


def test_tower_zero_denominator_exit_2(capsys, tmp_path):
    tower = tmp_path / "z.tower"
    tower.write_text("dims: 1, 1\nmap 0: 1/0\n")
    code = main(["tower", "--tower", str(tower), "--format", "record"])
    captured = capsys.readouterr()
    assert code == 2
    assert "input error" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("text", [
    # int() reads 1_0 as 10: a ten-dimensional level
    "dims: 1_0, 1\nmap 0: " + "; ".join(["1"] * 10) + "\n",
    "dims: 1, 1\nmap 0_0: 1\n",
    "dims: 1/2, 1\nmap 0: 1\n",
])
def test_tower_integer_fields_are_whole_literals(capsys, tmp_path, text):
    tower = tmp_path / "w.tower"
    tower.write_text(text)
    code = main(["tower", "--tower", str(tower), "--format", "record"])
    captured = capsys.readouterr()
    assert code == 2
    assert "input error: line" in captured.err and "Traceback" not in captured.err
    with pytest.raises(ParseError):
        parse_tower_file(text)


@pytest.mark.parametrize("order", ["1_0", "3/2", "2.0", ""])
def test_algebra_file_order_is_a_whole_literal(capsys, tmp_path, order):
    text = f"variables: x, s\nrelations: x^2\nsigma: s\norder: {order}\n"
    with pytest.raises(ParseError, match="bad order"):
        parse_algebra_file(text)
    spec = tmp_path / "o.spec"
    spec.write_text(text)
    assert main(["algebra-info", "--algebra", str(spec)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("variables: t\nbad line\n", "algebra file line 2: expected 'key: value'"),
    ("variables: t\norder: 2\n", "algebra file: 'order' needs a 'sigma' entry"),
    ("variables: s\nsigma: s\norder: 0\n", "algebra file: order must be >= 1"),
])
def test_spec_file_errors_are_parse_errors(capsys, tmp_path, text, message):
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(text)
    assert str(exc.value) == message
    spec = tmp_path / "e.spec"
    spec.write_text(text)
    assert main(["algebra-info", "--algebra", str(spec)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_algebra_file_order_reads_the_literal_grammar():
    assert "s^10" in parse_algebra_file("variables: s\nsigma: s\norder: 10\n").relations
    assert "s^2" in parse_algebra_file("variables: s\nsigma: s\norder: 4/2\n").relations


@pytest.mark.parametrize("argv", [
    ["omega", "--p", "1/0"],
    ["theorem2", "--n", "1/0", "--p", "1"],
    ["certify-eq7", "--c", "1+t", "--n", "1/0"],
])
def test_a_zero_denominator_in_a_cli_integer_is_a_usage_error(capsys, t3_spec, argv):
    # each used to end in ZeroDivisionError: Fraction(1, 0)
    code = main([argv[0], "--algebra", t3_spec] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "invalid whole value: '1/0'" in captured.err and "Traceback" not in captured.err


def test_a_zero_denominator_in_an_expression_is_an_input_error(capsys, t3_spec):
    # was "input error: zero denominator in '1/0 + t'"; now the message of a
    # spec order or a tower entry, with the expression after it
    code = main(["certify-eq7", "--algebra", t3_spec, "--c", "1/0 + t", "--n", "1"])
    captured = capsys.readouterr()
    assert (code, captured.err.splitlines()[0], len(captured.out)) == (
        2, "input error: '1/0' has a zero denominator in '1/0 + t'", 0)


def test_a_zero_denominator_in_a_spec_order_is_an_input_error(capsys, tmp_path):
    spec = tmp_path / "z.spec"
    spec.write_text("variables: t\nrelations: t^3\nsigma: t\norder: 1/0\n")
    assert main(["algebra-info", "--algebra", str(spec)]) == 2
    captured = capsys.readouterr()
    assert not captured.out and "Traceback" not in captured.err
    assert captured.err == "input error: algebra file: bad order: '1/0' has a zero denominator\n"


_LONG = "9" * 5000  # past the interpreter's 4,300-digit limit for int(str)


@pytest.mark.parametrize("where, prefix", [
    ("c", "input error: a number literal of 5000 digits is over the limit of 4300 digits "
          "in '1+99999"),
    ("order", "input error: algebra file: bad order: a number literal of 5000 digits"),
    ("tower", "input error: line 2: bad number in 'map 0': a number literal of 5000 digits"),
])
def test_a_literal_over_the_digit_limit_is_an_input_error(capsys, tmp_path, t3_spec, where,
                                                          prefix):
    # each used to print Python's own message, which names sys.set_int_max_str_digits
    path = tmp_path / "long"
    if where == "c":
        argv = ["certify-eq7", "--algebra", t3_spec, "--c", "1+" + _LONG, "--n", "2"]
    elif where == "order":
        path.write_text(f"variables: t\nrelations: t^3\nsigma: t\norder: {_LONG}\n")
        argv = ["algebra-info", "--algebra", str(path)]
    else:
        path.write_text(f"dims: 1, 1\nmap 0: {_LONG}\n")
        argv = ["tower", "--tower", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith(prefix) and "Traceback" not in captured.err
    assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize("where", ["order", "tower"])
def test_a_long_bad_number_is_quoted_bounded(capsys, tmp_path, where):
    # rational quoted the whole value: 10,085 and 10,091 bytes of stderr
    path = tmp_path / "bad"
    if where == "order":
        path.write_text(f"variables: t\nrelations: t^3\nsigma: t\norder: {'x' * 10000}\n")
        argv = ["algebra-info", "--algebra", str(path)]
    else:
        path.write_text(f"dims: 1, 1\nmap 0: {'1.' * 5000}\n")
        argv = ["tower", "--tower", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out and "Traceback" not in captured.err
    assert len(captured.err.encode()) < 300 and "… (10000 characters)" in captured.err


@pytest.mark.parametrize("argv", [
    ["omega", "--p"],
    ["theorem2", "--p", "2", "--n"],
    ["certify-eq7", "--c", "1+t", "--n"],
])
def test_a_long_bad_whole_option_is_quoted_bounded(capsys, t3_spec, argv):
    # argparse quoted the whole value: 10,174 bytes of stderr for --p
    code = main([argv[0], "--algebra", t3_spec] + argv[1:] + ["x" * 10000])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out and "Traceback" not in captured.err
    message = captured.err.splitlines()[-1]  # after the usage lines
    assert len(captured.err.encode()) < 600 and len(message.encode()) < 300
    assert "… (10000 characters) is not a rational literal such as 3 or -2/5" in message


@pytest.mark.parametrize("argv", [
    # int() reads 1_0 as 10
    ["omega", "--p", "1_0"],
    ["theorem2", "--n", "1_0", "--p", "2"],
    ["certify-eq8", "--c", "2", "--n", "1_0"],
])
def test_cli_integers_are_whole_literals(capsys, t3_spec, argv):
    code = main([argv[0], "--algebra", t3_spec] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "invalid whole value: '1_0'" in captured.err and "Traceback" not in captured.err


def test_cli_integers_read_the_literal_grammar(capsys, t3_spec):
    code, out = run(capsys, "theorem2", "--algebra", t3_spec, "--n", "2", "--p", "2")
    assert code == 0 and out
    assert run(capsys, "theorem2", "--algebra", t3_spec, "--n", "4/2", "--p", "2") == (code, out)


def test_tower_number_outside_the_literal_grammar_exit_2(capsys, tmp_path):
    # Fraction(str) would read these nine characters as a nine-million-digit int
    tower = tmp_path / "e.tower"
    tower.write_text("dims: 1, 1\nmap 0: 1e9000000\n")
    code = main(["tower", "--tower", str(tower), "--format", "record"])
    assert code == 2 and "bad number" in capsys.readouterr().err


@pytest.fixture()
def xy_spec(tmp_path):
    path = tmp_path / "xy.spec"
    path.write_text("variables: x, y\nrelations: x^2, x*y, y^2\n")
    return str(path)


PHI_T3 = """report=relative-generators
phi.n=1
phi.p=2
phi.count=13
phi.gen.000=1*{sigma + 1, t + 1}
phi.gen.001=1*{sigma + 1, t^2 + 1}
phi.gen.002=1*{sigma + 1, 2}
phi.gen.003=1*{sigma + 1, 3}
phi.gen.004=1*{t*sigma + 1, t + 1}
phi.gen.005=1*{t*sigma + 1, t^2 + 1}
phi.gen.006=1*{t*sigma + 1, 2}
phi.gen.007=1*{t*sigma + 1, 3}
phi.gen.008=1*{t^2*sigma + 1, t + 1}
phi.gen.009=1*{t^2*sigma + 1, t^2 + 1}
phi.gen.010=1*{t^2*sigma + 1, 2}
phi.gen.011=1*{t^2*sigma + 1, 3}
phi.gen.012=1*{sigma + 1, -sigma + 1}
"""

PHI_XY = """report=relative-generators
phi.n=1
phi.p=2
phi.count=13
phi.gen.000=1*{sigma + 1, y + 1}
phi.gen.001=1*{sigma + 1, x + 1}
phi.gen.002=1*{sigma + 1, 2}
phi.gen.003=1*{sigma + 1, 3}
phi.gen.004=1*{y*sigma + 1, y + 1}
phi.gen.005=1*{y*sigma + 1, x + 1}
phi.gen.006=1*{y*sigma + 1, 2}
phi.gen.007=1*{y*sigma + 1, 3}
phi.gen.008=1*{x*sigma + 1, y + 1}
phi.gen.009=1*{x*sigma + 1, x + 1}
phi.gen.010=1*{x*sigma + 1, 2}
phi.gen.011=1*{x*sigma + 1, 3}
phi.gen.012=1*{sigma + 1, -sigma + 1}
"""

TANGENT_T3 = """report=tangent-span
span.rank=0
span.dim=0
span.spans=true
span.certificate=-
"""

TANGENT_XY = """report=tangent-span
span.rank=1
span.dim=1
span.spans=true
span.certificate=1
"""


@pytest.mark.parametrize("spec, argv, expected", [
    ("t3_spec", ["phi", "--n", "1", "--p", "2"], PHI_T3),
    ("xy_spec", ["phi", "--n", "1", "--p", "2"], PHI_XY),
    ("t3_spec", ["tangent-span", "--p", "3"], TANGENT_T3),
    ("xy_spec", ["tangent-span", "--p", "3"], TANGENT_XY),
])
def test_symbol_records_pinned(capsys, request, spec, argv, expected):
    path = request.getfixturevalue(spec)
    code, out = run(capsys, *argv, "--algebra", path, "--format", "record")
    assert code == 0
    assert out == expected


@pytest.fixture()
def t3_eq8_doc(capsys, t3_spec, tmp_path):
    saved = tmp_path / "t3eq8.json"
    assert run(capsys, "certify-eq8", "--algebra", t3_spec, "--c", "1+t", "--n", "2",
               "--save", str(saved))[0] == 0
    return json.loads(saved.read_text())


@pytest.mark.parametrize("rule, key, value", [
    ("bilinearity", "at", "1"),
    ("projection", "order", "3"),
    ("torsion_scale", "m", [2]),
    ("steinberg", "slots", 5),
    ("steinberg", "symbol", [1]),
    ("torsion_scale", "m", "x"),
    ("steinberg", "coeff", "abc"),
    ("steinberg", "symbol", {"symbol": [[["1 + t", 1]]] * 3}),
])
def test_certificate_step_field_of_wrong_type_fails_at_step(
        capsys, tmp_path, t3_eq8_doc, rule, key, value):
    steps = t3_eq8_doc["steps"]
    idx = next(i for i, s in enumerate(steps)
               if s["rule"] == rule and (key in s["payload"] or key == "slots"))
    steps[idx]["payload"][key] = value
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert code == 1
    assert f"certificate.failure_index={idx}\n" in out
    assert "Traceback" not in err


@pytest.mark.parametrize("entries, shown", [
    (1, "{(t*sigma^3 + sigma^3 + 1)}"),
    (3, "{(t*sigma^3 + sigma^3 + 1), (-t*sigma^3 - sigma^3), (t + 1)}"),
    (40, "{(t*sigma^3 + sigma^3 + 1), (-t*sigma^3 - sigma^3), (t + 1),… (393 characters)"),
])
def test_payload_symbol_of_degree_other_than_two_fails_at_its_step(
        capsys, tmp_path, t3_eq8_doc, entries, shown):
    # a 3-entry symbol used to escape the replay, exit 2: mixed symbol degrees
    symbol = t3_eq8_doc["steps"][0]["payload"]["symbol"]["symbol"]
    symbol[:] = (symbol + [[["1 + t", 1]]] * entries)[:entries]
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert (code, err) == (1, "")
    assert ("certificate.failure_index=0\n"
            f"certificate.failure_detail=step field 'symbol' has a bad value: {shown}\n") in out


@pytest.mark.parametrize("key, value", [
    ("junk", {"symbol": [[["1 + sigma^50", 1]], [["1", 1]]]}),
    ("atoms", [["1 + sigma^50", 1]]),
])
def test_a_payload_field_the_rule_ignores_leaves_the_crosscheck_alone(
        capsys, tmp_path, t3_eq8_doc, key, value):
    # the crosscheck used to size its precision from every payload field, and
    # exit 2: precision 12 too small for atoms of sigma-span 50; need at least 150
    step = next(s for s in t3_eq8_doc["steps"] if s["rule"] == "torsion_scale")
    step["payload"][key] = value
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert (code, err) == (0, "")
    for row in ("certificate.valid=true", "crosscheck.precision=12", "crosscheck.all_agree=true"):
        assert row + "\n" in out


def test_certificate_detail_quotes_a_huge_number(capsys, tmp_path, t3_eq8_doc):
    # all 401 digits of m were printed
    steps = t3_eq8_doc["steps"]
    idx = next(i for i, s in enumerate(steps)
               if s["rule"] == "torsion_scale" and s["payload"]["mode"] == "unpack")
    steps[idx]["payload"]["m"] = 10 ** 400
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert (code, err) == (1, "")
    assert (f"certificate.failure_index={idx}\ncertificate.failure_detail=exponent "
            f"6 not divisible by 1{'0' * 59}… (401 characters)\n") in out


def test_certificate_atom_of_exponent_zero_is_dropped(capsys, tmp_path, t3_eq8_doc):
    t3_eq8_doc["start"][0][1][1].append(["1 + t", 0])
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert (code, err) == (0, "") and "certificate.valid=true\n" in out


def test_certificate_entry_without_atoms_is_one(capsys, tmp_path, t3_eq8_doc):
    t3_eq8_doc["claim"]["lhs"][0][1][0] = []
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert (code, err) == (1, "")
    assert "certificate.claim_lhs=1*{1, (-3*t*sigma^2 - 3*sigma^2 + 1)}\n" in out
    assert "certificate.claim_ok=false\n" in out


def test_certificate_quotes_a_long_value_bounded(capsys, tmp_path, t3_eq8_doc):
    # 2,000 atoms and one short one: the whole entry used to be quoted, 28 KB
    t3_eq8_doc["start"][0][1][0] += [["1 + t", 1]] * 2000 + [["1"]]
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert (code, out) == (2, "") and len(err.encode()) < 1024
    assert err == ("input error: certificate atoms [['t*sigma^3 + sigma^3 + 1', 1], ['1 + t', 1], "
                   "['1 + t', 1],… (28039 characters) are not [string, integer] pairs\n")


def test_certificate_step_with_non_unit_atom_fails_at_step(capsys, tmp_path, t3_eq8_doc):
    # projecting to order 0 drops every atom's unit term
    steps = t3_eq8_doc["steps"]
    idx = next(i for i, s in enumerate(steps) if s["rule"] == "projection")
    steps[idx]["payload"]["order"] = 0
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert code == 1
    assert "certificate.valid=false\n" in out
    assert f"certificate.failure_index={idx}\n" in out
    assert "certificate.failure_detail=atom is not a unit" in out
    assert "input error" not in err


def _big_state_coeff(doc):
    doc["start"][0][0] = "1e9000000"


def _big_step_coeff(doc):
    next(s for s in doc["steps"] if "coeff" in s["payload"])["payload"]["coeff"] = "1e9000000"


@pytest.mark.parametrize("edit, want", [(_big_state_coeff, 2), (_big_step_coeff, 1)])
def test_certificate_number_outside_the_literal_grammar(capsys, tmp_path, t3_eq8_doc, edit, want):
    # nine characters that Fraction(str) would expand to nine million digits
    edit(t3_eq8_doc)
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert code == want and "Traceback" not in err
    if want == 1:
        assert "bad value: '1e9000000'" in out


@pytest.mark.parametrize("exp", [1.5, "1", True, None])
def test_certificate_non_integer_exponent_exit_2(capsys, tmp_path, t3_eq8_doc, exp):
    # int() would read 1.5 as 1 and "1" as 1, and the certificate would pass
    t3_eq8_doc["steps"][4]["payload"]["atoms"][0][1] = exp
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert code == 2 and out == ""
    assert f"certificate atom exponent {exp!r} is not an integer" in err


def _non_string_step_atom(doc):
    doc["steps"][4]["payload"]["atoms"][0] = [5, 1]


def _non_string_state_atom(doc):
    doc["start"][0][1][0][0] = [5, 1]


def _non_string_variable(doc):
    doc["context"]["variables"] = [5]


def _non_string_relation(doc):
    doc["context"]["relations"] = ["t^3", None]


def _boolean_state_coeff(doc):
    # true used to load as 1, and the certificate passed
    doc["start"][0][0] = True


def _integer_state_coeff(doc):
    doc["start"][0][0] = 1


def _list_state_coeff(doc):
    doc["start"][0][0] = [1]


def _short_state_term(doc):
    doc["start"] = [["1"]]


def _scalar_state_term(doc):
    doc["start"] = [5]


def _scalar_state_symbol(doc):
    doc["start"] = [["1", 5]]


def _scalar_state_entry(doc):
    doc["start"] = [["1", [5]]]


def _short_state_atom(doc):
    doc["start"] = [["1", [[["1"]]]]]


def _scalar_step_symbol(doc):
    doc["steps"][0]["payload"]["symbol"] = {"symbol": 5}


def _scalar_step_atoms(doc):
    doc["steps"][4]["payload"]["atoms"] = 5


def _empty_variable_name(doc):
    doc["context"]["variables"] = [""]


def _three_entry_state_term(doc):
    doc["start"][0][1].append([["1 + t", 1]])


@pytest.mark.parametrize("edit, err", [
    (_non_string_step_atom, "input error: certificate atom 5 is not a string\n"),
    (_non_string_state_atom, "input error: certificate atom 5 is not a string\n"),
    (_non_string_variable, "input error: certificate fields context.variables and "
                           "context.relations must hold strings\n"),
    (_non_string_relation, "input error: certificate fields context.variables and "
                           "context.relations must hold strings\n"),
    (_boolean_state_coeff, "input error: certificate coefficient True is not a rational string\n"),
    (_integer_state_coeff, "input error: certificate coefficient 1 is not a rational string\n"),
    (_list_state_coeff, "input error: certificate coefficient [1] is not a rational string\n"),
    (_short_state_term, "input error: certificate state term ['1'] is not a "
                        "[coefficient, symbol] pair\n"),
    (_scalar_state_term, "input error: certificate state term 5 is not a "
                         "[coefficient, symbol] pair\n"),
    (_scalar_state_symbol, "input error: certificate state term ['1', 5] is not a "
                           "[coefficient, symbol] pair\n"),
    (_scalar_state_entry, "input error: certificate state term ['1', [5]] is not a "
                          "[coefficient, symbol] pair\n"),
    (_short_state_atom, "input error: certificate atoms [['1']] are not "
                        "[string, integer] pairs\n"),
    (_scalar_step_symbol, "input error: certificate symbol 5 is not an array of atom arrays\n"),
    (_scalar_step_atoms, "input error: certificate atoms 5 are not [string, integer] pairs\n"),
    (_empty_variable_name, "input error: variable names must be nonempty\n"),
    (_three_entry_state_term, "input error: mixed symbol degrees in one combination\n"),
])
def test_certificate_non_string_field_exit_2(capsys, tmp_path, t3_eq8_doc, edit, err):
    edit(t3_eq8_doc)
    assert _load_code(capsys, tmp_path, t3_eq8_doc) == (2, "", err)


@pytest.mark.parametrize("n, atoms, detail", [
    # (1 + sigma)^3000 is short to write and 3000 sigma-degrees wide
    (None, [["1 + sigma", 3000]], "spans 3000 sigma-degrees"),
    # 2^1000000000 spans no sigma-degree but has a 10^9-bit coefficient
    (None, [["2", 1000000000]], "total exponent 1000000000"),
    # the claimed level does not widen the budget
    (1000000, [["1 + sigma", 3000]], "spans 3000 sigma-degrees"),
])
def test_certificate_step_with_huge_power_fails_at_step(
        capsys, tmp_path, t3_eq8_doc, monkeypatch, n, atoms, detail):
    # the entry_factor comparison of step 4 must reject the atoms without
    # expanding them
    real_mul = LaurentPolynomial.mul

    def bounded_mul(self, other, order=None):
        out = real_mul(self, other, order)
        assert not out or out.maxdeg() - out.ord() <= 100, "expanded a wide power"
        return out

    def bounded_power(self, k, order=None):
        assert k <= EXPANSION_BUDGET, "expanded a high power"
        return real_power(self, k, order)

    real_power = LaurentPolynomial.power
    monkeypatch.setattr(LaurentPolynomial, "mul", bounded_mul)
    monkeypatch.setattr(LaurentPolynomial, "power", bounded_power)
    if n is not None:
        t3_eq8_doc["context"]["n"] = n
    t3_eq8_doc["steps"][4]["payload"]["atoms"] = atoms
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert code == 1
    assert "certificate.failure_index=4\n" in out
    assert detail in out
    assert f"over the budget of {EXPANSION_BUDGET}" in out
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value, message", [
    # a JSON boolean is not an integer: true would load as n = 1
    ("n", True, "certificate field context.n must be an integer"),
    ("n", False, "certificate field context.n must be an integer"),
    # "abc" would load as three one-character notes, an object as its keys
    ("annotations", "abc", "certificate field annotations must be an array"),
    ("annotations", {"a": "b"}, "certificate field annotations must be an array"),
    ("annotations", None, "certificate field annotations must be an array"),
    ("annotations", [1, 2], "certificate field annotations must hold strings"),
    ("annotations", ["ok", 3], "certificate field annotations must hold strings"),
])
def test_certificate_json_types_exit_2(capsys, tmp_path, t3_eq8_doc, key, value, message):
    (t3_eq8_doc["context"] if key == "n" else t3_eq8_doc)[key] = value
    saved = tmp_path / "resaved.json"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(t3_eq8_doc))
    code = main(["certify-eq8", "--load", str(path), "--save", str(saved)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err
    assert not saved.exists()


def test_certificate_annotations_are_optional(capsys, tmp_path, t3_eq8_doc):
    del t3_eq8_doc["annotations"]
    code, out, _ = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert code == 0 and "certificate.valid=true\n" in out


@pytest.mark.parametrize("argv, message", [
    (["phi", "--n", "0", "--p", "2"], "generator families need level n >= 1"),
    (["theorem2", "--n", "0", "--p", "2"], "generator families need level n >= 1"),
    (["theorem2", "--n", "-1", "--p", "2"], "generator families need level n >= 1"),
    (["phi", "--n", "2", "--p", "0"], "generator families need degree p >= 1"),
    (["theorem2", "--n", "2", "--p", "0"], "generator families need degree p >= 1"),
    (["tangent-span", "--p", "0"], "generator families need degree p >= 1"),
    (["tangent-span", "--p", "-1"], "generator families need degree p >= 1"),
])
def test_generator_family_domain_exit_2(capsys, t3_spec, q_spec, argv, message):
    # over Q a level-0 family used to realize nothing and exit 0
    for spec in (t3_spec, q_spec):
        code = main([*argv, "--algebra", spec, "--format", "record"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"input error: {message}\n"


SIGMA_PAIR = [["sigma", 1], ["sigma", -1]]


def test_step_after_projection_with_a_sigma_atom_fails_at_step(capsys, tmp_path, t3_eq8_doc):
    # sigma * sigma^-1 keeps the entry's value, but sigma is not a unit of
    # A[s]/s^3: the checker rejects the step, where the crosscheck used to
    # fail with "dlog of non-unit sigma" and exit 2
    atoms = t3_eq8_doc["goal"][0][1][0] + SIGMA_PAIR
    t3_eq8_doc["steps"].append({"rule": "entry_factor", "position": {"term": 0, "slot": 0},
                                "payload": {"atoms": atoms}})
    t3_eq8_doc["goal"][0][1][0] = atoms
    t3_eq8_doc["claim"]["lhs"] = t3_eq8_doc["goal"]
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert (code, err) == (1, "")
    assert "certificate.failure_index=16\n" in out
    assert "certificate.failure_detail=atom sigma has sigma-order 1;" in out


def _false_claim(doc):
    """Project to sigma^1 and claim {1 - s, 1 - 3(1+t)s} = 0 over Q[t]/t^3 at n = 2,
    which is false; the projection's order used to go unchecked, so this was
    valid and only the crosscheck disagreed."""
    _projection(doc)["payload"]["order"] = 1
    atom = "-3*t*sigma - 3*sigma + 1"
    doc["steps"][-1]["payload"]["atoms"][0][0] = atom
    doc["goal"][0][1][1][0][0] = atom
    doc["claim"]["lhs"] = doc["goal"]


def _projection(doc):
    return next(s for s in doc["steps"] if s["rule"] == "projection")


@pytest.mark.parametrize("edit, order", [
    (_false_claim, 1),
    # projecting to sigma^2 used to be valid (exit 0); to sigma^4 failed at step 13
    (lambda doc: _projection(doc)["payload"].update(order=2), 2),
    (lambda doc: _projection(doc)["payload"].update(order=4), 4),
], ids=["false-claim", "order-2", "order-4"])
def test_a_projection_to_another_order_than_n_plus_1_fails_at_its_step(
        capsys, tmp_path, t3_eq8_doc, edit, order):
    edit(t3_eq8_doc)
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert (code, err) == (1, "")
    assert "certificate.valid=false\ncertificate.failure_index=12\n" in out
    assert (f"certificate.failure_detail=projection to sigma^{order}, but the context "
            "truncates at sigma^3 (n + 1)\n") in out
    assert "crosscheck." not in out


@pytest.mark.parametrize("idx", [13, 15])
def test_sigma_atom_after_projection_fails_at_its_step(capsys, tmp_path, t3_eq8_doc, idx):
    # this used to fail only as "final state != goal", with no failing step
    t3_eq8_doc["steps"][idx]["payload"]["atoms"] += SIGMA_PAIR
    code, out, _ = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert code == 1
    assert f"certificate.failure_index={idx}\n" in out
    assert "certificate.failure_detail=atom sigma has sigma-order 1;" in out


@pytest.mark.parametrize("cmd", ["certify-eq7", "certify-eq8"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_certificates_need_level_one(capsys, t3_spec, cmd, n):
    # eq7 at n = 0 used to build and pass; the others failed on a missing term
    code = main([cmd, "--algebra", t3_spec, "--c", "2", "--n", n])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "input error: certificates need level n >= 1\n")


@pytest.mark.parametrize("n", [0, -1])
def test_saved_certificate_needs_level_one(capsys, tmp_path, t3_eq8_doc, n):
    t3_eq8_doc["context"]["n"] = n
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert (code, out) == (2, "")
    assert err == "input error: certificate field context.n must be >= 1\n"


@pytest.mark.parametrize("cmd, c, n", [("certify-eq7", "1+t", "1"), ("certify-eq8", "2", "2")])
def test_certificates_over_an_algebra_with_a_sigma_variable(capsys, tmp_path, cmd, c, n):
    # s takes the first free name, here eps, as in the generator families
    spec = tmp_path / "sigma.spec"
    spec.write_text("variables: t, sigma\nrelations: t^2, sigma^3, t*sigma\nsigma: sigma\n")
    saved = tmp_path / "cert.json"
    code, out = run(capsys, cmd, "--algebra", str(spec), "--c", c, "--n", n,
                    "--format", "record", "--save", str(saved))
    assert code == 0
    assert "certificate.valid=true\n" in out and "crosscheck.all_agree=true\n" in out
    claim = out.split("certificate.claim_rhs=")[0]
    assert "eps" in claim
    code, reloaded = run(capsys, cmd, "--load", str(saved), "--format", "record")
    assert (code, reloaded) == (0, out.replace(f"certificate.saved={saved}\n", ""))


@pytest.mark.parametrize("argv", [
    ["algebra-info"], ["omega", "--p", "1"], ["decomposition", "--n", "1", "--p", "1"],
    ["phi", "--n", "1", "--p", "2"], ["theorem2", "--n", "1", "--p", "2"],
    ["tangent-span", "--p", "2"], ["certify-eq7", "--c", "1", "--n", "1"],
    ["certify-eq8", "--c", "1", "--n", "1"], ["tau", "--n", "1"],
])
@pytest.mark.parametrize("spec_text", [
    "variables: t\nrelations: 1\n",
    "variables: t\nrelations: 2, t^3\n",
    "variables:\nrelations: 1\n",
    "variables: t, sigma\nrelations: t^2, t - 1, sigma^2\nsigma: sigma\n",
])
def test_zero_ring_is_not_local(capsys, tmp_path, argv, spec_text):
    # the relations generate the unit ideal: the quotient is the zero ring,
    # which used to crash the symbol commands and pass the others
    spec = tmp_path / "zero.spec"
    spec.write_text(spec_text)
    code = main([*argv, "--algebra", str(spec), "--format", "record"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "input error: the relations generate the unit ideal\n"


def test_saved_certificate_over_the_zero_ring_exit_2(capsys, tmp_path, t3_eq8_doc):
    t3_eq8_doc["context"]["relations"] = ["1"]
    code, out, err = _load_code(capsys, tmp_path, t3_eq8_doc)
    assert (code, out) == (2, "")
    assert err == "input error: the relations generate the unit ideal\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_tau_needs_level_one(capsys, tmp_path, n):
    # --n 0 used to fail inside the engine on a truncation order, --n -1 on
    # an exponent of a generated relation
    spec = tmp_path / "b.spec"
    spec.write_text("variables: t, sigma\nrelations: t^2, sigma^3, t*sigma\nsigma: sigma\n")
    code = main(["tau", "--algebra", str(spec), "--n", n, "--format", "record"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "input error: transport checks need n >= 1\n"


@pytest.mark.parametrize("text, message", [
    ("dims: 2, 2\ndims: 1, 1\nmap 0: 1\n", "line 2: repeated dims line"),
    ("dims: 1, 1\nmap 0: 1\nmap 0: 2\n", "line 3: repeated map 0"),
    ("dims: 1, 1\nmap 0: 1\nmap 1: 2\n", "map 1 is out of range for 2 levels"),
    ("dims: 1\nmap 0: 1\n", "map 0 is out of range for 1 levels"),
    ("dims: 0, 2\nmap 0: 1, 0\n", "map 0 onto a level of dimension 0 must be empty"),
    ("dims: 0, 2\nmap 0: ;\n", "map 0 onto a level of dimension 0 must be empty"),
])
def test_malformed_tower_file_exit_2(capsys, tmp_path, text, message):
    # each of these used to load: the last line won, or the map was dropped
    tower = tmp_path / "bad.tower"
    tower.write_text(text)
    code = main(["tower", "--tower", str(tower), "--format", "record"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"input error: {message}\n"


def test_tower_map_onto_a_zero_level_is_an_empty_line(capsys, tmp_path):
    tower = tmp_path / "z.tower"
    tower.write_text("dims: 0, 2\nmap 0:\n")
    code, out = run(capsys, "tower", "--tower", str(tower), "--format", "record")
    assert code == 0 and "limit.dim=2" in out


@pytest.mark.parametrize("option", ["--algebra", "--tower", "--load", "--output", "--save"])
def test_a_directory_path_is_an_input_error(capsys, tmp_path, t3_spec, option):
    # an IsADirectoryError traceback with exit 1 before; any OSError is an input error
    argv = {"--algebra": ["omega", "--algebra", str(tmp_path), "--p", "1"],
            "--tower": ["tower", "--tower", str(tmp_path)],
            "--load": ["certify-eq8", "--load", str(tmp_path)],
            "--output": ["omega", "--algebra", t3_spec, "--p", "1", "--output", str(tmp_path)],
            "--save": ["certify-eq8", "--algebra", t3_spec, "--c", "2", "--n", "1",
                       "--save", str(tmp_path)]}[option]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: ") and "Is a directory" in captured.err


def _nested(text, depth):
    return "(" * depth + text + ")" * depth


@pytest.mark.parametrize("depth, code", [(100, 0), (101, 2), (200, 2)])
def test_nested_parentheses_in_c(capsys, t3_spec, depth, code):
    # 200 levels raised RecursionError (exit 1, traceback) before
    got = main(["certify-eq8", "--algebra", t3_spec, "--c", _nested("1+t", depth), "--n", "1",
                "--format", "record"])
    captured = capsys.readouterr()
    assert got == code
    if code:
        assert captured.err.startswith("input error: parentheses nested deeper than 100 in ")


def test_a_run_of_minus_signs_is_a_loop(capsys, t3_spec):
    # 2,000 signs raised RecursionError (exit 1, traceback) before; an even run is +
    argv = ["certify-eq8", "--algebra", t3_spec, "--n", "1", "--format", "record"]
    assert run(capsys, *argv, "--c=" + "-" * 2000 + "2") == run(capsys, *argv, "--c", "2")
    code, out = run(capsys, *argv, "--c=" + "-" * 2001 + "2")
    assert code == 0 and out == run(capsys, *argv, "--c=-2")[1]


def test_nested_spec_relation_exit_2(capsys, tmp_path):
    spec = tmp_path / "deep.spec"
    spec.write_text(f"variables: t\nrelations: {_nested('t', 400)}^3\n")
    code = main(["algebra-info", "--algebra", str(spec)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("input error: parentheses nested deeper than 100 in ")


def test_nested_spec_relation_error_is_short(capsys, tmp_path):
    # the message quoted all 803 characters of the relation, 857 bytes in all
    spec = tmp_path / "deep.spec"
    spec.write_text(f"variables: t\nrelations: {_nested('t', 400)}^3\n")
    assert main(["algebra-info", "--algebra", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: parentheses nested deeper than 100 in ")
    assert len(err.encode()) < 200 and err.rstrip().endswith("… (803 characters)")


@pytest.mark.parametrize("where", ["document", "atom", "c"])
def test_deeply_nested_certificate_exit_2(capsys, tmp_path, t3_eq8_doc, where):
    path = tmp_path / "deep.json"
    if where == "document":
        # json.loads itself raised RecursionError here before
        path.write_text("[" * 100_000 + "]" * 100_000)
        message = "certificate JSON is nested too deeply"
    else:
        if where == "atom":
            t3_eq8_doc["start"][0][1][0][0][0] = _nested("1+t", 200)
        else:
            t3_eq8_doc["context"]["c"] = _nested("1+t", 200)
        path.write_text(json.dumps(t3_eq8_doc))
        message = "parentheses nested deeper than 100"
    code = main(["certify-eq8", "--load", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err


def _python(*argv):
    """A fresh interpreter on this checkout's sources; the deep-payload test
    depends on the stack depth at which the CLI runs, which pytest would add to."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("depth, code", [(984, 0), (985, 2)])
def test_a_deep_step_payload_saves_as_it_loaded(tmp_path, t3_eq8_doc, depth, code):
    """Under CPython 3.11's recursion limit of 1000, `python -m milnork`
    loads a step payload 984 lists deep and refuses one 985 deep.  What it
    loads it saves, one writer call per level, with the bytes of
    json.dumps(indent=1, sort_keys=True)."""
    t3_eq8_doc["steps"][0]["payload"]["deep"] = "DEEP"
    path, saved = tmp_path / "deep.json", tmp_path / "saved.json"
    path.write_text(json.dumps(t3_eq8_doc).replace('"DEEP"', "[" * depth + "]" * depth))
    done = _python("-m", "milnork", "certify-eq8", "--load", str(path), "--save", str(saved))
    assert done.returncode == code, done.stderr[-500:]
    if code:
        assert done.stderr == "input error: certificate JSON is nested too deeply\n"
        return
    dumped = _python("-c", "import json, sys; sys.stdout.write(json.dumps("
                     "json.load(open(sys.argv[1])), indent=1, sort_keys=True))", str(path))
    assert dumped.returncode == 0 and saved.read_text() == dumped.stdout


@pytest.mark.parametrize("text, message", [
    ("variables: t\nrelations: t^3\nrelations: t^2\n", "line 3: repeated key 'relations'"),
    ("variables: t\nvariables: t\nrelations: t^3\n", "line 2: repeated key 'variables'"),
    ("variables: s\nrelations: s^3\nsigma: s\nSigma: s\n", "line 4: repeated key 'sigma'"),
    ("variables: s\nrelations: s^3\nsigmaa: s\n", "line 3: unknown key 'sigmaa'"),
    ("variables: t\nrelation: t^3\n", "line 2: unknown key 'relation'"),
])
def test_malformed_spec_file_exit_2(capsys, tmp_path, text, message):
    # each of these loaded as another algebra with exit 0 before
    spec = tmp_path / "bad.spec"
    spec.write_text(text)
    code = main(["algebra-info", "--algebra", str(spec), "--format", "record"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"input error: algebra file {message}\n"
