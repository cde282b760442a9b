#!/usr/bin/env bash
# Run the malformed-input corpus plus CLI-level exit-code spot checks:
# every file in tests/corpus/ must produce its declared GCR_E_* code
# (corpus_test asserts code and line number), and the tools must map bad
# inputs onto the shared exit-code contract (docs/robustness.md).
#
# Usage: scripts/check_corpus.sh [build-dir]
set -uo pipefail

BUILD="${1:-build}"
REPO="$(cd "$(dirname "$0")/.." && pwd)"
fail=0

ctest --test-dir "$BUILD" -R '^(corpus_test|guard_test)$' \
  --output-on-failure || fail=1

# expect <want-exit> <cmd...>: the command must exit with exactly that code.
expect() {
  local want="$1"
  shift
  "$@" > /dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: expected exit $want, got $got: $*" >&2
    fail=1
  else
    echo "ok (exit $want): $*"
  fi
}

expect 1 "$BUILD"/tools/gcr_check --bogus-flag
expect 1 "$BUILD"/tools/gcr_serve --bogus-flag
expect 1 "$BUILD"/tools/gcr_serve  # neither --reqs nor --stdin
expect 1 "$BUILD"/tools/gcr_route --bogus-flag
expect 1 "$BUILD"/tools/gcr_bench --bogus-flag
expect 1 "$BUILD"/tools/gcr_benchdiff --bogus-flag
# An unreadable or invalid report is exit 2, under --validate too.
bad_report="$(mktemp)"
printf '{"schema": ' > "$bad_report"
expect 2 "$BUILD"/tools/gcr_benchdiff --validate "$bad_report"
rm -f "$bad_report"
expect 2 "$BUILD"/tools/gcr_check --tree "$REPO/tests/corpus/cycle.tree"
expect 2 "$BUILD"/tools/gcr_check --tree /nonexistent.tree
expect 2 "$BUILD"/tools/gcr_check --replay /nonexistent-artifact.json

# A truncated route must exit 3 with a partial report: build a demo design
# and give it a deadline no route can meet.
demo="$(mktemp -d)"
trap 'rm -rf "$demo"' EXIT
"$BUILD"/tools/gcr_route --demo "$demo" > /dev/null
{
  echo "reqs"
  echo "good sinks=demo.sinks rtl=demo.rtl stream=demo.stream"
} > "$demo/good.reqs"

# ECO deltas ride the same contract: a syntactically broken .delta and a
# semantically invalid one (sink index out of range) are both exit 2.
printf 'delta\nmove 0 nan 5\n' > "$demo/bad_syntax.delta"
printf 'delta\nmove 99999 5 5\n' > "$demo/bad_semantics.delta"
expect 2 "$BUILD"/tools/gcr_route --sinks "$demo/demo.sinks" \
  --rtl "$demo/demo.rtl" --stream "$demo/demo.stream" \
  --eco "$demo/bad_syntax.delta"
expect 2 "$BUILD"/tools/gcr_route --sinks "$demo/demo.sinks" \
  --rtl "$demo/demo.rtl" --stream "$demo/demo.stream" \
  --eco "$demo/bad_semantics.delta"
expect 3 "$BUILD"/tools/gcr_route --sinks "$demo/demo.sinks" \
  --rtl "$demo/demo.rtl" --stream "$demo/demo.stream" \
  --auto-tune --deadline-ms 0

# With --profile the truncated route also leaves a JSON-valid flight record
# next to the run report.
expect 3 "$BUILD"/tools/gcr_route --sinks "$demo/demo.sinks" \
  --rtl "$demo/demo.rtl" --stream "$demo/demo.stream" \
  --deadline-ms 0 --report "$demo/r.json" --profile
if python3 -m json.tool "$demo/r.json.flightrec.json" > /dev/null 2>&1; then
  echo "ok: r.json.flightrec.json is valid JSON"
else
  echo "FAIL: no JSON-valid r.json.flightrec.json after --profile" >&2
  fail=1
fi

# A flag value that does not parse whole, overflows or lies outside the
# flag's domain is a flag error (exit 1, cli.bad_flag) before any work
# starts: not coerced the way atoi/atof would, and never an abort.
for bad in "--partitions 3" "--partitions 0" "--strength 2" "--threads abc" \
    "--deadline-ms junk" "--skew-bound nan"; do
  # shellcheck disable=SC2086  # $bad is a flag and its value
  expect 1 "$BUILD"/tools/gcr_route --sinks "$demo/demo.sinks" \
    --rtl "$demo/demo.rtl" --stream "$demo/demo.stream" $bad
done
expect 1 "$BUILD"/tools/gcr_serve --reqs "$demo/good.reqs" --workers abc
expect 1 "$BUILD"/tools/gcr_serve --reqs "$demo/good.reqs" --queue-depth -1
# Serve routes flat, so it takes no width: --threads is an unknown flag.
expect 1 "$BUILD"/tools/gcr_serve --reqs "$demo/good.reqs" --threads 2
expect 1 "$BUILD"/tools/gcr_check --seed abc --random 1
# Routing one design from files and verifying it is gcr_route --selftest;
# gcr_check has no file mode.
expect 1 "$BUILD"/tools/gcr_check --sinks x
expect 0 "$BUILD"/tools/gcr_route --sinks "$demo/demo.sinks" \
  --rtl "$demo/demo.rtl" --stream "$demo/demo.stream" \
  --selftest --style gated --topology mmm --partitions 4

# --profile adds sections to the --report document, so alone it is a flag
# error; so are telemetry snapshots with no JSONL log to keep them.
expect 1 "$BUILD"/tools/gcr_route --sinks "$demo/demo.sinks" \
  --rtl "$demo/demo.rtl" --stream "$demo/demo.stream" --profile
expect 1 env -u GCR_LOG "$BUILD"/tools/gcr_route --sinks "$demo/demo.sinks" \
  --rtl "$demo/demo.rtl" --stream "$demo/demo.stream" \
  --telemetry-interval-ms 10

# stop() wakes the ticker, so a 2 s snapshot period does not hold the demo
# route (milliseconds of work) open for the rest of the period.
t0=$(date +%s%N)
expect 0 "$BUILD"/tools/gcr_route --sinks "$demo/demo.sinks" \
  --rtl "$demo/demo.rtl" --stream "$demo/demo.stream" \
  --log-json "$demo/ev.jsonl" --telemetry-interval-ms 2000
elapsed_ms=$(( ($(date +%s%N) - t0) / 1000000 ))
if [ "$elapsed_ms" -lt 1000 ]; then
  echo "ok: --telemetry-interval-ms 2000 demo route took ${elapsed_ms} ms"
else
  echo "FAIL: --telemetry-interval-ms 2000 demo route took ${elapsed_ms} ms" >&2
  fail=1
fi

# A finite sink load far past any real pin (1e308 pF) would overflow the
# Elmore arithmetic; it is invalid input under every topology and builder.
awk 'NR == 4 { $3 = "1e308" } 1' "$demo/demo.sinks" > "$demo/huge_cap.sinks"
for topo in swcap nn; do
  for builder in "" "--clustered --threads 4"; do
    # shellcheck disable=SC2086  # $builder is zero or more flags
    expect 2 "$BUILD"/tools/gcr_route --sinks "$demo/huge_cap.sinks" \
      --rtl "$demo/demo.rtl" --stream "$demo/demo.stream" \
      --topology "$topo" $builder
  done
done

# Coordinates far past any die (1e200 on a 1e300 die) would overflow the
# squared wire lengths of the Elmore terms; invalid input under both
# topologies.
awk 'NR == 2 { $4 = "1e300"; $5 = "1e300" } NR == 4 { $1 = "1e200"; $2 = "1e200" } 1' \
  "$demo/demo.sinks" > "$demo/huge_coord.sinks"
for topo in swcap nn; do
  expect 2 "$BUILD"/tools/gcr_route --sinks "$demo/huge_coord.sinks" \
    --rtl "$demo/demo.rtl" --stream "$demo/demo.stream" --topology "$topo"
done

# An output file that cannot be written is invalid input too, not a
# silent success.
expect 2 "$BUILD"/tools/gcr_route --demo /nonexistent/demo
for out in --tree --svg; do
  expect 2 "$BUILD"/tools/gcr_route --sinks "$demo/demo.sinks" \
    --rtl "$demo/demo.rtl" --stream "$demo/demo.stream" "$out" /nonexistent/out
done

# gcr_serve speaks the same contract per request; the batch exit is the
# worst request's code (docs/serving.md).
{
  echo "reqs"
  echo "ghost sinks=no_such.sinks rtl=demo.rtl stream=demo.stream"
} > "$demo/ghost.reqs"
# 64 requests against a 1-deep queue and one busy lane: submission is
# orders of magnitude faster than a route, so the overflow sheds with
# GCR_E_OVERLOAD deterministically.
{
  echo "reqs"
  for i in $(seq -w 1 64); do
    echo "q$i sinks=demo.sinks rtl=demo.rtl stream=demo.stream"
  done
} > "$demo/flood.reqs"
expect 2 "$BUILD"/tools/gcr_serve --reqs "$REPO/tests/corpus/bad_option.reqs"
expect 2 "$BUILD"/tools/gcr_serve --reqs /nonexistent.reqs
expect 0 "$BUILD"/tools/gcr_serve --reqs "$demo/good.reqs"
expect 2 "$BUILD"/tools/gcr_serve --reqs "$demo/ghost.reqs"
expect 3 "$BUILD"/tools/gcr_serve --reqs "$demo/good.reqs" --deadline-ms 0
expect 3 "$BUILD"/tools/gcr_serve --reqs "$demo/flood.reqs" \
  --workers 1 --queue-depth 1
# --faults 1 fires the serve.enqueue admission fault point on the first
# (only) submission: the request sheds with GCR_E_OVERLOAD.
expect 3 "$BUILD"/tools/gcr_serve --reqs "$demo/good.reqs" --faults 1

exit $fail
