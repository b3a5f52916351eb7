"""milnork benchmark: cold-process passes over one workload, with checked verdicts.

    python3 bench/run.py --workload {suite-all,rank-ladder,certify-ladder}
                         --seed N --seconds S --trace {0,1}

Every pass runs in a fresh interpreter (bench/job.py), one at a time, so
each starts with the cold caches a CLI user pays for.  Passes repeat until
``--seconds`` have elapsed (at least MIN_PASSES).  Times are normalized to
the host's speed, probed while each pass runs (bench/hostspeed.py).  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics from traced passes, alternated with untraced
ones that give the tracing overhead.  Any wrong or raised verdict, any
verdict that differs between passes of one seed, and any per-layer count
that does not repeat exactly makes the run fail (exit 1).  Details of every
pass, spans included, go to bench/out/.  See bench/README.md.
"""

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from calltrace import TARGETS
from hostspeed import normalized

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src", "milnork")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("suite-all", "rank-ladder", "certify-ladder")

MIN_PASSES = 3        # untraced passes per --trace 0 run
DEADLINE_S = 170      # a run ends within this, even if a pass hangs

# name -> (unit, better); the traced run also reports the calls/self_s rows
# of every calltrace.TARGETS prefix.
DERIVED = {
    "kahler.omega_module.free_dim_max": ("count", "lower"),
    "linalg.insert.pivots": ("count", "higher"),
    "linalg.insert.pivot_ratio": ("ratio", "higher"),
    "milnor.relative_generators.generated": ("count", "lower"),
    "certify.check_step.per_certificate": ("calls/cert", "lower"),
    "suite.kahler_s": ("s", "lower"),
    "suite.milnor_s": ("s", "lower"),
    "suite.certify_s": ("s", "lower"),
    "suite.towers_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
CALLS_ONLY = ("algebra.truncated_extension", "milnor.tangent_realize")
SELF_ONLY = ("towers",)


def per_layer_names():
    names = {}
    for prefix, _, _ in TARGETS:
        if prefix not in SELF_ONLY:
            names[f"{prefix}.calls"] = ("count", "lower")
        if prefix not in CALLS_ONLY:
            names[f"{prefix}.self_s"] = ("s", "lower")
    names.update(DERIVED)
    return names


def spawn(workload, seed, mode, env, timeout):
    """One cold interpreter; returns its parsed report, or None if it failed."""
    cmd = [sys.executable, os.path.join(BENCH, "job.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{mode} pass killed after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, trace, env):
    """Passes until the next one would end after `seconds`, each preceded by a
    set-up-only launch so set-up samples spread over the whole run."""
    started = time.monotonic()
    setups, plain, traced = [], [], []
    # --trace 1: untraced, traced, traced, then alternate
    schedule = ["plain", "traced", "traced"] if trace else ["plain"] * MIN_PASSES
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        if schedule:
            mode = schedule.pop(0)
        elif elapsed + longest <= seconds:
            mode = "traced" if trace and len(traced) <= len(plain) else "plain"
        else:
            break
        if elapsed + longest > DEADLINE_S:
            break
        t0 = time.monotonic()
        setups.append(spawn(workload, seed, "setup", env, DEADLINE_S - elapsed))
        result = spawn(workload, seed, mode, env, DEADLINE_S - (time.monotonic() - started))
        longest = max(longest, time.monotonic() - t0)
        (traced if mode == "traced" else plain).append(result)
    return setups, plain, traced


def job_seconds(result):
    """Normalized seconds of each job span (see hostspeed.py)."""
    return [normalized(result["probes"], r["start"], r["end"])
            for r in result["spans"] if r["kind"] == "job"]


def span_seconds(result, name):
    return sum((normalized(result["probes"], r["start"], r["end"])
                for r in result["spans"] if r["name"] == name), 0.0)


def pass_seconds(result):
    return normalized(result["probes"], result["start"], result["end"])


def busy_seconds(result):
    """Raw wall time of a pass with the probe's own time taken out."""
    return result["wall_s"] - sum(d for t, d in result["probes"] if t >= result["start"])


def check(setups, plain, traced):
    """Count verdicts and list every inconsistency between passes."""
    problems = []
    attempted = failed = 0
    reference = None
    for result in plain + traced:
        if result is None:
            attempted += 1
            failed += 1
            problems.append("a pass failed to report")
            continue
        for name, ok, got in result["verdicts"]:
            attempted += 1
            if not ok:
                failed += 1
                problems.append(f"wrong verdict {name}: {got}")
        if reference is None:
            reference = result["verdicts"]
        elif result["verdicts"] != reference:
            problems.append("verdicts differ between passes of one seed")
    if None in setups:
        problems.append("a set-up-only launch failed")
    seen = [r["counts"] for r in traced if r is not None]
    for other in seen[1:]:
        for name in sorted(other.keys() | seen[0].keys()):
            if other.get(name) != seen[0].get(name):
                problems.append(f"count {name} does not repeat across traced passes: "
                                f"{seen[0].get(name)} then {other.get(name)}")
    return attempted, failed, problems


def end_to_end(setups, plain):
    """Medians over the run's launches and passes, in normalized seconds."""
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in setups + plain), "s"),
        "wall_s": (statistics.median(pass_seconds(r) for r in plain), "s"),
        "max_job_s": (statistics.median(max(job_seconds(r)) for r in plain), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }


def raw_medians(setups, plain):
    return {"setup_s": statistics.median(r["setup_raw_s"] for r in setups + plain),
            "wall_s": statistics.median(busy_seconds(r) for r in plain)}


def per_layer(plain, traced):
    """Per-layer metrics, and the names of those this workload never exercises."""
    counts = traced[0]["counts"]
    names = per_layer_names()
    values = {}
    for name in names:
        prefix, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = counts[name]
        elif field == "self_s":
            values[name] = min(r["self_s"][prefix] for r in traced)
    inserts, pivots = counts["linalg.insert.calls"], counts.get("linalg.insert.pivots", 0)
    values["linalg.insert.pivots"] = pivots
    values["linalg.insert.pivot_ratio"] = pivots / inserts if inserts else 0.0
    values["kahler.omega_module.free_dim_max"] = counts.get(
        "kahler.omega_module.build.free_dim_max", 0)
    values["milnor.relative_generators.generated"] = counts.get(
        "milnor.relative_generators.generated", 0)
    # a certificate is an outermost build: vanishing_certificate nests a splitting one
    certificates = counts["certify.build.entries"]
    values["certify.check_step.per_certificate"] = (
        counts["certify.check_step.calls"] / certificates if certificates else 0.0)
    for sub in ("kahler", "milnor", "certify", "towers"):
        values[f"suite.{sub}_s"] = statistics.median(
            span_seconds(r, f"suite.{sub}") for r in plain)
    values["trace.overhead_ratio"] = (min(r["wall_s"] for r in traced)
                                      / min(busy_seconds(r) for r in plain))

    idle_prefixes = tuple(name[:-len("calls")] for name, value in counts.items()
                          if name.endswith(".calls") and not value)
    spans = {span["name"] for span in plain[0]["spans"]}
    idle = [name for name in names if name.startswith(idle_prefixes)
            or (name.startswith("suite.") and name[:-2] not in spans)]
    return {name: (values[name], unit) for name, (unit, _) in names.items()}, idle


def main():
    # SIGTERM ends the run through SystemExit, so subprocess.run kills and
    # reaps the pass in flight instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        sys.exit(f"no milnork sources at {SRC}; run from a full checkout")

    for path in (SRC, BENCH):  # cached bytecode even under PYTHONDONTWRITEBYTECODE
        compileall.compile_dir(path, maxlevels=0, quiet=1)
    env = dict(os.environ)
    env.setdefault("PYTHONHASHSEED", "0")
    setups, plain, traced = run_passes(args.workload, args.seed, args.seconds,
                                       args.trace, env)
    attempted, failed, problems = check(setups, plain, traced)
    correct = not problems
    metrics, idle, raw = {}, [], {}
    if correct and args.trace:
        metrics, idle = per_layer(plain, traced)
    elif correct:
        metrics, raw = end_to_end(setups, plain), raw_medians(setups, plain)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "args": vars(args),
            "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                            "PYTHONHASHSEED": env["PYTHONHASHSEED"],
                            "platform": platform.platform()},
            "correct": correct, "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted, "problems": problems,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "not_exercised": idle, "raw_medians": raw,
            "setup_passes": setups, "plain_passes": plain, "traced_passes": traced,
        }, fh, indent=1)

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} passes={len(plain)}+{len(traced)} traced"
          f" error_rate={failed / attempted:.4f} ({failed}/{attempted})"
          f" details={os.path.relpath(path, ROOT)}")
    for name, (value, unit) in metrics.items():
        note = "  (not exercised)" if name in idle else ""
        print(f"  {name} = {value} {unit}{note}")
    for name, value in raw.items():
        print(f"  (raw, not normalized: {name} = {value} s)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
