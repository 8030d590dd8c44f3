#!/usr/bin/env bash
# Runs every bench binary and records Google-Benchmark JSON as
# BENCH_<name>.json, so the perf trajectory is comparable commit to commit.
#
#   tools/run_benches.sh [build-dir]        # default: build
#
# Knobs:
#   BENCH_OUT_DIR   where the .json files land (default: the build dir)
#   BENCH_MIN_TIME  per-benchmark min time in seconds, with or without an
#                   `s` suffix, e.g. 2s for stable numbers (default 0.05:
#                   quick smoke that still emits real data). libbenchmark
#                   before 1.8 takes only a bare number and rejects the
#                   suffix; later versions take the suffix. The script
#                   probes the installed library and passes whichever form
#                   it accepts.
#   BENCH_FILTER    extended regex over bench names; only matching benches
#                   run (e.g. 'state_space|service'). Skipped benches emit
#                   no JSON — downstream bench_gate.py counter gates treat
#                   a bench missing from the run as a skip, not a failure,
#                   so a filtered perf night stays green.
#
# Exits non-zero, naming the benches, when a bench that ran wrote no JSON
# or failed.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${BENCH_OUT_DIR:-$BUILD_DIR}"
MIN_TIME="${BENCH_MIN_TIME:-0.05}"
FILTER="${BENCH_FILTER:-}"

benches=(
  bench_encoding
  bench_figure4
  bench_matchgen
  bench_nonblocking
  bench_parallel_dpor
  bench_poll
  bench_service
  bench_solver
  bench_state_space
  bench_symbolic_vs_explicit
)

seconds="${MIN_TIME%s}"
if ! [[ "$seconds" =~ ^[0-9]+([.][0-9]+)?$ ]]; then
  echo "error: BENCH_MIN_TIME='$MIN_TIME' is not a number of seconds (e.g. 0.5 or 0.5s)" >&2
  exit 1
fi

selected=()
for b in "${benches[@]}"; do
  if [[ -n "$FILTER" ]] && ! [[ "$b" =~ $FILTER ]]; then
    echo "== $b (skipped by BENCH_FILTER='$FILTER')"
    continue
  fi
  if [[ ! -x "$BUILD_DIR/$b" ]]; then
    echo "error: $BUILD_DIR/$b not found or not executable (build first: cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
  selected+=("$b")
done

# A form is accepted when listing the benches with it exits 0 and prints
# nothing to stderr (older libraries only warn about a malformed value in
# binaries with their own main, and silently fall back to the default).
accepts() {
  local err
  err="$("$BUILD_DIR/${selected[0]}" --benchmark_min_time="$1" \
         --benchmark_list_tests 2>&1 >/dev/null)" && [[ -z "$err" ]]
}
min_time_flag=""
if (( ${#selected[@]} > 0 )); then
  for form in "${seconds}s" "$seconds"; do
    if accepts "$form"; then
      min_time_flag="--benchmark_min_time=$form"
      break
    fi
  done
  if [[ -z "$min_time_flag" ]]; then
    echo "error: the installed libbenchmark accepts neither --benchmark_min_time=${seconds}s nor --benchmark_min_time=$seconds" >&2
    exit 1
  fi
fi

mkdir -p "$OUT_DIR"
failed=()
for b in "${selected[@]}"; do
  out="$OUT_DIR/BENCH_${b#bench_}.json"
  rm -f "$out"
  echo "== $b ($min_time_flag)"
  status=0
  "$BUILD_DIR/$b" "$min_time_flag" \
         --benchmark_out="$out" \
         --benchmark_out_format=json || status=$?
  if [[ ! -s "$out" ]]; then
    echo "error: $b wrote no JSON to $out (exit status $status)" >&2
    failed+=("$b")
  elif (( status != 0 )); then
    echo "error: $b exited with status $status" >&2
    failed+=("$b")
  fi
done

echo "wrote $(( ${#selected[@]} - ${#failed[@]} )) BENCH_*.json files to $OUT_DIR (${#benches[@]} known)"
if (( ${#failed[@]} > 0 )); then
  echo "error: benches failed: ${failed[*]}" >&2
  exit 1
fi
