#!/usr/bin/env bash
# Regenerate every paper table/figure and extension study, plus the test
# log and benchmark sidecars, into out/.
#
# Usage: scripts/reproduce_all.sh [build-dir]
#   GCR_BENCH_QUICK=1  run gcr_bench in the quick tier (fewer reps, tighter
#                      time caps).
set -euo pipefail

BUILD="${1:-build}"
OUT=out
mkdir -p "$OUT"

# Prefer Ninja for fresh build dirs; an already-configured dir keeps its
# generator (CMake refuses to switch generators in place).
if [ -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD"
elif command -v ninja > /dev/null 2>&1; then
  cmake -B "$BUILD" -G Ninja
else
  cmake -B "$BUILD"
fi
cmake --build "$BUILD" -j "$(nproc)"

ctest --test-dir "$BUILD" --output-on-failure 2>&1 | tee "$OUT/tests.txt"

# Verification harness: a differential sweep over random designs plus a
# routed-and-selfchecked demo design. Either exits nonzero on any invariant
# violation, aborting the reproduction before bad numbers land in out/.
"$BUILD"/tools/gcr_check --random 100 --seed 2026 2>&1 | tee "$OUT/verify.txt"

# Robustness gates: the seeded fault-injection sweep (every injected fault
# must surface as a diagnostic, never a crash) and the malformed-input
# corpus with its CLI exit-code contract. Either failing aborts the
# reproduction -- see docs/robustness.md.
"$BUILD"/tools/gcr_check --faults --seed 2026 2>&1 | tee "$OUT/faults.txt"
"$(dirname "$0")"/check_corpus.sh "$BUILD" 2>&1 | tee "$OUT/corpus.txt"

demo="$OUT/demo_design"
mkdir -p "$demo"
"$BUILD"/tools/gcr_route --demo "$demo" > /dev/null
"$BUILD"/tools/gcr_route --sinks "$demo/demo.sinks" --rtl "$demo/demo.rtl" \
  --stream "$demo/demo.stream" --auto-tune --selftest > /dev/null

# The registered benchmark suite: statistics + memory sidecars per group
# (BENCH_<group>.json), schema-validated.
"$BUILD"/tools/gcr_bench ${GCR_BENCH_QUICK:+--quick} --out "$OUT" \
  2>&1 | tee "$OUT/gcr_bench.txt"
"$BUILD"/tools/gcr_benchdiff --validate "$OUT"/BENCH_*.json

# The paper gate: every table, figure and extension study routed under the
# invariant checker, every claim in its band, and every block EXPERIMENTS.md
# carries equal to the printed one. A failed claim, check or stale block
# aborts the reproduction.
"$BUILD"/bench/paper "$(dirname "$0")"/../EXPERIMENTS.md 2>&1 | tee "$OUT/paper.txt"

"$BUILD"/examples/layout_svg "$OUT"
echo "All outputs in $OUT/"
