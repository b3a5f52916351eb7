"""One cold pass of one workload, in a fresh single-threaded interpreter.

Started by run.py, never by hand: ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this interpreter, so set-up
time covers interpreter start, ``import milnork`` and making the inputs.
Prints one JSON object: set-up time, wall time, host-speed probes, spans,
verdicts, peak RSS and, with ``--mode traced``, the per-function aggregates.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import milnork  # noqa: E402  (set-up includes this import)
from calltrace import Spans, Tracer  # noqa: E402
from hostspeed import REFERENCE_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    here = os.path.join(ROOT, "src", "milnork")
    if os.path.dirname(os.path.abspath(milnork.__file__)) != here:
        sys.exit(f"imported milnork from {milnork.__file__}, not from {here}")
    make_inputs, run = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    speed = SpeedProbe()
    speed.burst()
    factor = REFERENCE_S / statistics.mean(d for _, d in speed.samples)
    out = {"setup_s": setup_s * factor, "setup_raw_s": setup_s,
           "hashseed": os.environ.get("PYTHONHASHSEED")}
    if args.mode != "setup":
        # traced passes run without the probe, so it adds nothing to self times
        tracer = Tracer() if args.mode == "traced" else None
        spans = Spans(tracer)
        if tracer:
            tracer.install()
        with contextlib.nullcontext() if tracer else speed:
            start = time.perf_counter()
            try:
                verdicts = run(inputs, spans)
            finally:
                end = time.perf_counter()
                if tracer:
                    tracer.uninstall()
        out.update(start=start, end=end, wall_s=end - start, probes=speed.samples)
        out["verdicts"] = verdicts
        out["spans"] = spans.records
        if tracer:
            out["counts"] = tracer.counts()
            out["self_s"] = {name: stat.self_s for name, stat in tracer.stats.items()}
            out["total_s"] = {name: stat.total_s for name, stat in tracer.stats.items()}
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
