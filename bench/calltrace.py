"""In-memory spans and call tracing for the benchmark.

Spans mark jobs and stages (name, parent id, start, end); the benchmark's
own code opens them, so there are a few dozen per pass.  The tracer wraps
milnork's public functions and methods and aggregates calls, total time and
self time per function in memory.  It never records a span per call:
``AlgebraElement.__mul__`` alone runs about 150k times in one rank job.
"""

import functools
import sys
import time
from contextlib import contextmanager

PACKAGE = "milnork"

# (metric prefix, module, attribute path); several targets may share a prefix.
TARGETS = (
    ("algebra.build_algebra", "milnork.algebra", "build_algebra"),
    ("algebra.truncated_extension", "milnork.algebra", "truncated_extension"),
    ("algebra.mul", "milnork.algebra", "AlgebraElement.__mul__"),
    ("algebra.reduce_mono", "milnork.algebra", "Algebra.reduce_mono"),
    ("algebra.invert_unit", "milnork.algebra", "invert_unit"),
    ("algebra.transport", "milnork.algebra", "transport"),
    ("expr.parse_polynomial", "milnork.expr", "parse_polynomial"),
    ("kahler.omega_module.build", "milnork.kahler", "OmegaModule.__init__"),
    ("kahler.d", "milnork.kahler", "d"),
    ("kahler.wedge", "milnork.kahler", "wedge"),
    ("kahler.dlog", "milnork.kahler", "dlog"),
    ("kahler.act", "milnork.kahler", "DifferentialForm.act"),
    ("kahler.map_form", "milnork.kahler", "map_form"),
    ("linalg.insert", "milnork.linalg", "RowSpace.insert"),
    ("linalg.reduce", "milnork.linalg", "RowSpace.reduce"),
    ("milnor.relative_generators", "milnork.milnor", "relative_generators"),
    ("milnor.relative_realize", "milnork.milnor", "relative_realize"),
    ("milnor.span_check", "milnork.milnor", "span_check"),
    ("milnor.dlog_realize", "milnork.milnor", "dlog_realize"),
    ("milnor.tangent_realize", "milnork.milnor", "tangent_realize"),
    ("laurent.mul", "milnork.laurent", "LaurentPolynomial.mul"),
    ("laurent.split", "milnork.laurent", "LaurentEntry.split"),
    ("certify.build", "milnork.certify", "splitting_certificate"),
    ("certify.build", "milnork.certify", "vanishing_certificate"),
    ("certify.check_step", "milnork.certify", "check_step"),
    ("certify.crosscheck_dlog", "milnork.certify", "crosscheck_dlog"),
    ("certify.realizer", "milnork.certify", "ExtendedRealizer.__init__"),
    ("certify.realize_state", "milnork.certify", "ExtendedRealizer.realize_state"),
    ("certify.json", "milnork.certify", "certificate_to_json"),
    ("certify.json", "milnork.certify", "certificate_from_json"),
    ("towers", "milnork.towers", "surjectivity_check"),
    ("towers", "milnork.towers", "ml_window_check"),
    ("towers", "milnork.towers", "limit_dim"),
    ("towers", "milnork.towers", "parse_tower_file"),
)


def _count_pivot(stat, args, result):
    if result is not None:
        stat.extra["pivots"] = stat.extra.get("pivots", 0) + 1


def _count_generated(stat, args, result):
    stat.extra["generated"] = stat.extra.get("generated", 0) + len(result)


def _max_free_dim(stat, args, result):
    stat.extra["free_dim_max"] = max(stat.extra.get("free_dim_max", 0), args[0].free_dim)


HOOKS = {
    "linalg.insert": _count_pivot,
    "milnor.relative_generators": _count_generated,
    "kahler.omega_module.build": _max_free_dim,
}


class Stat:
    """Aggregate for one metric prefix.  `entries` counts outermost calls."""

    __slots__ = ("calls", "entries", "total_s", "self_s", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.entries = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.extra = {}


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = []  # one [child seconds] cell per active traced call
        self._patched = []

    def counts(self):
        """Flat counts: ``<prefix>.calls``, ``<prefix>.entries`` and hook extras."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.entries"] = stat.entries
            for key, value in stat.extra.items():
                out[f"{name}.{key}"] = value
        return out

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            if not stat.active:
                stat.entries += 1
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += elapsed - cell[0]
                if not stat.active:
                    stat.total_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(stat, args, result)
            return result

        return traced

    def install(self):
        """Rebind every name that refers to a target, in every milnork module
        and class: ``kahler.invert_unit`` and ``suite.check_step`` are separate
        bindings of the same functions."""
        owners = []
        seen = set()
        for modname, module in sorted(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for owner in (module, *vars(module).values()):
                if id(owner) in seen:
                    continue
                if owner is module or (isinstance(owner, type)
                                       and owner.__module__.startswith(PACKAGE)):
                    seen.add(id(owner))
                    owners.append(owner)
        for name, modname, path in TARGETS:
            original = sys.modules[modname]
            for part in path.split("."):
                original = vars(original)[part]
            wrapper = self._wrap(name, original)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


class Spans:
    """Job and stage spans kept in memory; with a tracer, each span also
    records the counts (calls, pivots, ...) that grew inside it."""

    def __init__(self, tracer=None):
        self.records = []
        self.tracer = tracer
        self._open = []

    @contextmanager
    def span(self, name, kind="stage"):
        rec = {"id": len(self.records), "parent": self._open[-1] if self._open else None,
               "name": name, "kind": kind}
        self.records.append(rec)
        self._open.append(rec["id"])
        before = self.tracer.counts() if self.tracer else None
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            if before is not None:
                rec["counts"] = {k: v - before.get(k, 0) for k, v in self.tracer.counts().items()
                                 if v != before.get(k, 0) and not k.endswith("_max")}

    def durations(self, kind):
        return [(r["name"], r["end"] - r["start"]) for r in self.records if r["kind"] == kind]
