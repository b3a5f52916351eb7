"""Run bench/run.py once per seed and report each metric's median and spread.

    python3 bench/spread.py --workload rank-ladder --seeds 1-10 [--seconds S]
                            [--trace 0] [--save FILE]

The spread is the distance between the first and third quartile of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of their
median; a metric is steady when its spread stays below a third of its bound
in BENCHMARK.json.  Runs are sequential, so they never compete for a core.
``--save`` merges the figures into FILE under the workload's name (and
``<workload>.trace`` for a traced set), e.g. bench/BENCH_1.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="merge the figures into this JSON file")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            sys.exit(f"seed {seed}: run failed\n{proc.stderr}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in result["metrics"].items()
                                          if k in bounds), flush=True)
    steady = True
    figures = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        figures[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "values": vals}
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag, steady = "  NOT STEADY (>= bound/3)", False
        print(f"{name}: median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread:.4f} bound={bound}{flag}")
    if args.save:
        saved = {}
        if os.path.exists(args.save):
            with open(args.save, encoding="utf-8") as fh:
                saved = json.load(fh)
        key = args.workload + (".trace" if args.trace else "")
        saved[key] = {"seeds": args.seeds, "seconds": args.seconds, "metrics": figures}
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
