#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics (perfbench/README.md).

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Runs perfbench/run.py once per seed on each workload (sequentially, one
process at a time) and prints, per end-to-end metric, the median of the
runs, the quartiles from statistics.quantiles(values, n=4), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json. A spread
below a third of its bound is steady; setup_s has no spread requirement.
Exits non-zero when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print("%s seed %d failed (exit %d)" % (w, seed,
                                                       proc.returncode))
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
            print("  %s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % kv for kv in runs[-1].items())), flush=True)
        print("== %s (%d seeds from %d)" % (w, args.seeds, args.first_seed))
        print("%-12s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print("%-12s %14.6g %14.6g %14.6g %8.4f %6.3g" %
                  (name, med, q1, q3, spread, bound))
    print("worst spread / bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
