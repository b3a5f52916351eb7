"""Line trace of tier-1: the statements of src/milnork that no test runs.

Run from the repository root (stdlib only; pytest does not collect this file):

    python tests/linetrace.py

It runs the tier-1 tests in this process under sys.settrace and records every
line of src/milnork that executes.  A statement counts as run when a line of
it runs: its whole extent for a simple statement, its header for a compound
one.  Docstrings are not statements.  It prints the never-run statements and
exits 1 when one is not in ALLOWED, or when the tests fail.

ALLOWED holds the statements no tier-1 test can run, each with its reason.
Any other statement either gets the test that reaches it or is deleted with
an argument that no input, suite or caller reaches it.  An entry names a
file, the header line of the block around the statement (a def, if, for,
...) and the statement's first line, so it survives edits elsewhere.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "milnork"

_SUBPROCESS = "`python -m milnork` runs only in a subprocess, which the trace does not see"
_WRONG_ENGINE = ("eq6's corrected reading is the theorem the suite checks; only a wrong "
                 "engine would give the literal or neither verdict")

ALLOWED = {
    ("__main__.py", "<module>", "import sys"): _SUBPROCESS,
    ("__main__.py", "<module>", "from .cli import main"): _SUBPROCESS,
    ("__main__.py", "<module>", "sys.exit(main())"): _SUBPROCESS,
    ("kahler.py", "elif direct == corrected:", "elif direct == literal:"): _WRONG_ENGINE,
    ("kahler.py", "elif direct == literal:", 'verdict = "literal"'): _WRONG_ENGINE,
    ("kahler.py", "elif direct == literal:", 'verdict = "neither"'): _WRONG_ENGINE,
}


def statements(path):
    """{statement: (first line, last line to look at)} of one source file, keyed
    by (header line of the enclosing block, statement's first line, line number)."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    out = {}

    def visit(body, where):
        for i, node in enumerate(body):
            if (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # a docstring
            children = [getattr(node, f, None) for f in ("body", "orelse", "finalbody")]
            children = [c for c in children if c] + [h.body for h in getattr(node, "handlers", ())]
            if children:  # compound: its header, up to the first line of its body
                first = min(c[0].lineno for c in children)
                last = first - 1
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    first = min([first] + [dec.lineno for dec in node.decorator_list])
            else:
                first, last = node.lineno, node.end_lineno
            first = min(first, node.lineno)
            key = (where, lines[node.lineno - 1].strip(), node.lineno)
            out[key] = (first, max(last, node.lineno))
            for child in children:
                visit(child, key[1])

    visit(ast.parse(source).body, "<module>")
    return out


def main():
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    hit = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    never, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hit.get(str(path), set())
        for (where, text, lineno), (first, last) in sorted(statements(path).items(),
                                                            key=lambda kv: kv[0][2]):
            total += 1
            if not ran.intersection(range(first, last + 1)):
                never.append((path.name, where, text, lineno))
    unexpected = [s for s in never if s[:3] not in ALLOWED]
    print(f"\n{len(never)} of {total} statements in src/milnork never run in tier-1:")
    for name, where, text, lineno in never:
        reason = ALLOWED.get((name, where, text), "NOT IN THE ALLOW-LIST")
        print(f"  {name}:{lineno} ({where}) {text}\n      {reason}")
    stale = set(ALLOWED) - {s[:3] for s in never}
    for entry in sorted(stale):
        print(f"  allow-list entry now runs, or is gone: {entry}")
    return 1 if status or unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
