#!/usr/bin/env bash
# Stack-sampling CPU profile of perfbench's fleet_bench, for hosts
# without perf, gdb or valgrind.
#
# Builds fleet_bench as Release with -g in its own tree (build-sample/),
# compiles scripts/sampler/sigprof.c into an LD_PRELOAD object, runs
# fleet_bench under it, and symbolizes the samples with
# scripts/sampler/symbolize.py (addr2line -a -f -i -C): inclusive shares
# of named functions, caller-attributed leaves, and any --share buckets.
# Writes the raw samples, the maps, the folded stacks and the report to
# build-sample/profile/. BUILD_DIR and JOBS override the tree and the
# build width.
#
#   scripts/sample_profile.sh [SYMBOLIZE_OPTIONS...] -- FLEET_BENCH_ARGS...
#
# e.g. scripts/sample_profile.sh --top 30 -- --workload private --seed 1 \
#          --users 2000
#
# SIGPROF counts process CPU time and fires at the kernel tick, about
# 250 Hz on a 250 Hz kernel, so give the run at least 15 s of CPU for a
# usable sample (a few thousand stacks).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-sample}"
# Absolute from here on: LD_PRELOAD needs a path that resolves anywhere.
[[ "$BUILD_DIR" == /* ]] || BUILD_DIR="$PWD/$BUILD_DIR"
OUT="$BUILD_DIR/profile"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

symbolize_args=()
while [[ $# -gt 0 && "$1" != "--" ]]; do
  symbolize_args+=("$1")
  shift
done
[[ "${1:-}" == "--" ]] && shift
if [[ $# -eq 0 ]]; then
  echo "usage: $0 [SYMBOLIZE_OPTIONS...] -- FLEET_BENCH_ARGS..." >&2
  exit 2
fi

mkdir -p "$OUT"
{
  cmake -S perfbench -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-g
  cmake --build "$BUILD_DIR" --target fleet_bench -j"$JOBS"
  cc -O2 -shared -fPIC -o "$BUILD_DIR/sigprof.so" scripts/sampler/sigprof.c
} >"$OUT/build.log" 2>&1 || { cat "$OUT/build.log" >&2; exit 1; }

rm -f "$OUT/samples.raw"
SAMPLE_OUT="$OUT/samples.raw" LD_PRELOAD="$BUILD_DIR/sigprof.so" \
  "$BUILD_DIR/fleet_bench" "$@" >"$OUT/fleet_bench.out"
if [[ ! -s "$OUT/samples.raw" ]]; then
  echo "$0: no samples in $OUT/samples.raw (run too short?)" >&2
  exit 1
fi
python3 scripts/sampler/symbolize.py "$OUT/samples.raw" \
  --binary "$BUILD_DIR/fleet_bench" --folded "$OUT/folded.txt" \
  "${symbolize_args[@]}" | tee "$OUT/report.txt"
