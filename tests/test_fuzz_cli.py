"""Fuzz the three input grammars, and the whole-number options, through the CLI.

Every input, well-formed or not, must end in exit code 0, 1 or 2; an
exception escaping `main` fails the test.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from milnork.cli import main

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=100)


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_JUNK = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)


def _mostly(valid, bad):
    """Draw from `valid` about four times in five, else from `bad`."""
    return st.integers(0, 4).flatmap(lambda i: bad if i == 0 else valid)


# (a) tower files
_NUMBER = _mostly(st.integers(-2, 2).map(str),
                  st.sampled_from(["1/2", "-2/3", "1/0", "0/4", "1.5", "x", ""]))


@st.composite
def _tower_text(draw):
    dims = draw(st.lists(_mostly(st.integers(0, 3), st.integers(-1, 5)), max_size=4))
    lines = ["dims: " + ", ".join(map(str, dims))]
    for k in range(len(dims) - 1):
        rows = [", ".join(draw(_NUMBER) for _ in range(max(dims[k + 1], 0)))
                for _ in range(max(dims[k], 0))]
        lines.append(f"map {k}: " + "; ".join(rows))
    for _ in range(draw(_mostly(st.just(0), st.integers(1, 2)))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK))
    return "\n".join(lines)


@FUZZ
@given(text=_tower_text())
@example(text="dims: 1, 1\nmap 0: 1/0")
def test_fuzz_tower_file(workdir, text):
    path = workdir / "fuzz.tower"
    path.write_text(text, encoding="utf-8")
    _exit_code(["tower", "--tower", str(path), "--format", "record"])


# (b) algebra spec files: at most two variables, three relations, exponents <= 6
@st.composite
def _spec_text(draw):
    names = draw(st.sampled_from([(), ("x",), ("x", "y"), ("y", "x")]))

    def term():
        exps = [f"{n}^{draw(st.integers(0, 6))}" for n in names]
        return "*".join([str(draw(st.integers(-3, 3)))] + exps)

    relations = []
    for _ in range(draw(st.integers(0, 3))):
        if names and draw(st.booleans()):  # a pure power keeps the staircase finite
            relations.append(f"{draw(st.sampled_from(names))}^{draw(st.integers(1, 6))}")
        else:
            relations.append(" + ".join(term() for _ in range(draw(st.integers(1, 3)))))
    extra = draw(_mostly(st.sampled_from(["", "sigma: y\n", "sigma: y\norder: {}\n",
                                          "sigma: x\norder: {}\n", "order: {}\n"]), _JUNK))
    return (f"variables: {', '.join(names)}\nrelations: {', '.join(relations)}\n"
            + extra.replace("{}", draw(_NUMBER)))


@FUZZ
@given(text=_spec_text())
@example(text="variables: t\nrelations: t^3\nsigma: t\norder: 1/0\n")
def test_fuzz_algebra_spec(workdir, text):
    path = workdir / "fuzz.spec"
    path.write_text(text, encoding="utf-8")
    _exit_code(["algebra-info", "--algebra", str(path), "--format", "record"])


# (c) whole-number options of the fast commands over Q[t]/t^3; not phi, which lists
# about 4^(p-1) generators, for minutes at a valid p of 14
@pytest.fixture(scope="module")
def t3_spec(workdir):
    spec = workdir / "t3.spec"
    spec.write_text("variables: t\nrelations: t^3\n")
    return str(spec)


@st.composite
def _whole_argv(draw):
    command = draw(st.sampled_from(["omega", "decomposition", "theorem2", "certify-eq7"]))
    options = {"omega": ("--p",), "decomposition": ("--n", "--p"), "theorem2": ("--n", "--p"),
               "certify-eq7": ("--n",)}[command]
    argv = [command] + (["--c", "1+t"] if command == "certify-eq7" else [])
    for option in options:
        argv += [option, draw(_NUMBER)]
    return argv


@FUZZ
@given(argv=_whole_argv())
@example(argv=["omega", "--p", "1/0"])
@example(argv=["theorem2", "--n", "1/0", "--p", "1"])
@example(argv=["certify-eq7", "--c", "1+t", "--n", "1/0"])
@example(argv=["theorem2", "--n", "1", "--p", "32"])
@example(argv=["theorem2", "--n", "1", "--p", "100"])
def test_fuzz_whole_number_options(t3_spec, argv):
    _exit_code(argv + ["--algebra", t3_spec, "--format", "record"])


# (d) the Q[t]/t^3 eq8 certificate with one step field replaced
@pytest.fixture(scope="module")
def eq8_doc(workdir, t3_spec):
    saved = workdir / "t3eq8.json"
    assert _exit_code(["certify-eq8", "--algebra", t3_spec, "--c", "1+t", "--n", "2",
                       "--save", str(saved)]) == 0
    return saved.read_text()


_JSON = _mostly(
    st.integers(-1, 4) | st.sampled_from(["0", "2", "-1/2", "split", "merge", "pack", [0, 1]]),
    st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
        lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids,
                                                                  max_size=3),
        max_leaves=6))


@FUZZ
@given(index=st.integers(0, 15), pick=st.integers(0, 7), value=_JSON)
@example(index=5, pick=0, value="1")  # bilinearity split with a string payload.at
def test_fuzz_certificate_step_field(workdir, eq8_doc, index, pick, value):
    doc = json.loads(eq8_doc)
    step = doc["steps"][index]
    fields = sorted((where, key) for where in ("payload", "position") for key in step[where])
    where, key = fields[pick % len(fields)]
    step[where][key] = value
    path = workdir / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _exit_code(["certify-eq8", "--load", str(path), "--format", "record"])
