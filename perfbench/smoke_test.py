#!/usr/bin/env python3
"""The benchmark's own tests: a seconds-long tiny-size run of every workload.

    python3 perfbench/smoke_test.py

For each workload, serve_eco included, runs perfbench/run.py --smoke with --trace 0 and with
--trace 1 and asserts that
  * every end-to-end (trace 0) or per-layer (trace 1) metric of
    BENCHMARK.json is printed by name with its unit;
  * no op failed: correct is true, failed is 0 and ok_frac is 1, i.e.
    fail_frac == 0;
  * the traced layer-by-layer route wrote the same bytes as route_guarded
    (the driver exits non-zero without a result when it does not), and its
    layer split is populated (one merge per sink pair, two embed passes).
Also asserts that the benchmark refuses to run, without printing a result,
when the library sources are missing. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(workload, trace, cwd=ROOT, seed=7):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # serve_eco is not in BENCHMARK.json (see README.md) but stays tested.
    for w in ("route_large", "trace_long", "serve_eco"):
        for trace in (0, 1):
            proc = run(w, trace)
            tag = "%s --trace %d" % (w, trace)
            check(proc.returncode == 0,
                  "%s exited %d:\n%s" % (tag, proc.returncode, proc.stderr[-2000:]))
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            want = spec["per_layer" if trace else "end_to_end"]
            for m in want:
                got = res["metrics"].get(m["name"])
                check(got is not None, "%s: %s missing" % (tag, m["name"]))
                check(got["unit"] == m["unit"],
                      "%s: %s unit %s" % (tag, m["name"], got["unit"]))
            check(len(res["metrics"]) == len(want), tag + ": extra metrics")
            check(res["correct"] is True and res["failed"] == 0,
                  "%s: %d of %d ops failed" % (tag, res["failed"],
                                               res["attempted"]))
            m = {k: v["value"] for k, v in res["metrics"].items()}
            if trace:
                check(m["cts.merges"] > 0 and m["clocktree.embed_passes"] >= 2,
                      tag + ": empty layer split")
                check(m["eco.incremental_ms"] > 0 and m["serve.lane_ms_p50"] > 0,
                      tag + ": eco/serve layers not measured")
            else:
                check(m["ok_frac"] == 1.0, tag + ": fail_frac != 0")
                check(m["swcap_pf"] > 0, tag + ": no switched capacitance")
            print("ok   " + tag)

    # Without the library sources the benchmark must fail, printing no result.
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "route_large",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=180, env=dict(os.environ, CARGO_TARGET_DIR="b"))
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "benchmark ran without the library sources")
        print("ok   refuses to run without ../src")
    return 0


if __name__ == "__main__":
    sys.exit(main())
