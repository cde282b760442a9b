#!/usr/bin/env python3
"""End-to-end routing benchmark entry point (perfbench/README.md).

    python3 perfbench/run.py --workload route_large|trace_long|serve_eco \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. Builds the driver (perfbench/CMakeLists.txt,
which compiles ../src) into $CARGO_TARGET_DIR or .bench_build, runs one
workload, checks the driver's result line against BENCHMARK.json and prints
it as the last line of stdout. Build output goes to stderr. Exits non-zero
without a result line when the build, the run or a check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target).resolve()


def build(out):
    cmake = out / "cmake"
    steps = []
    if not (cmake / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(cmake),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(cmake), "--target", "gcr_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if rc != 0:
            fail("build step failed (exit %d): %s" % (rc, " ".join(cmd)))
    return cmake / "gcr_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("driver's last line is not JSON: %r" % line[:200])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(res))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("attempted must be a positive integer")
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["route_large", "trace_long", "serve_eco"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the benchmark's own tests)")
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    work = out / "work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("driver exited %d" % proc.returncode)
    check_result(lines[-1], args.trace)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
