"""The behavioural contract under other CPythons.

`suite all --format record` must give the same bytes under every
interpreter milnork supports.  Each interpreter of a fixed list of pyenv
versions, under $PYENV_ROOT (by default ~/.pyenv), runs it on this
checkout's sources, and the record's sha256 is compared with the pin the
benchmark holds.  An interpreter that is not installed is skipped by name.
The runs are started together, so the module takes about as long as the
slowest of them.
"""

import hashlib
import importlib.util
import os
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
VERSIONS = ("3.10.13", "3.12.1", "3.13.0")
PYENV = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"


def _pin():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SUITE_RECORD_SHA256


def _interpreter(version):
    return PYENV / version / "bin" / "python"


@pytest.fixture(scope="module")
def records():
    """version -> (exit code, record bytes, stderr) of each installed interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    runs = {v: subprocess.Popen([str(_interpreter(v)), "-m", "milnork", "suite", "all",
                                 "--format", "record"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            for v in VERSIONS if _interpreter(v).is_file()}
    out = {}
    for version, proc in runs.items():
        stdout, stderr = proc.communicate(timeout=120)
        out[version] = proc.returncode, stdout, stderr.decode(errors="replace")
    return out


@pytest.mark.parametrize("version", VERSIONS)
def test_suite_record_is_the_same_under_each_interpreter(records, version):
    if version not in records:
        pytest.skip(f"CPython {version} is not installed at {_interpreter(version)}")
    code, record, stderr = records[version]
    assert (code, stderr) == (0, "")
    assert hashlib.sha256(record).hexdigest() == _pin()
