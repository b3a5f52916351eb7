"""The traced benchmark run wraps the functions that bench/calltrace.py names
in TARGETS; a rename or deletion in milnork must not silently break it."""

import importlib
import importlib.util
from pathlib import Path

CALLTRACE = Path(__file__).resolve().parents[1] / "bench" / "calltrace.py"


def _targets():
    spec = importlib.util.spec_from_file_location("calltrace", CALLTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    for prefix, modname, path in targets:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            assert part in vars(owner), (prefix, modname, path)
            owner = vars(owner)[part]
        assert callable(owner), (prefix, modname, path)
