#!/usr/bin/env bash
# Verification ladder for the caching stack — the single entrypoint both
# local runs and CI jobs use (each .github/workflows/ci.yml job invokes
# one stage, so passing CI and a local `tools/run_checks.sh` are the same
# checks by construction).
#
# Stages:
#
#   plain   — full build + complete ctest suite (includes oracle label)
#   diff    — differential harness sweep (clean + mutation self-tests;
#             rounds draw the browser protocol at random plus a forced
#             --h2 sweep), the oracle-off / flash-off / breakdown-off / h2
#             / shared-catalog cross-thread byte-identity checks
#             (feature-on runs compared across thread counts), fleetsim's
#             and difftest's rejection of bad input (exit 2 with the usage
#             text), and fleetsim's exit 1 when a write to /dev/full fails.
#             Its temporary files live in one mktemp -d directory, removed
#             on exit, so concurrent checkouts never share them
#   perf    — engine_hotpath --smoke gated against bench/baselines/
#             hotpath.json (fails on >20% macro throughput regression)
#             plus the edge_offload --smoke flash sweep and the
#             --breakdown overhead gate (one-thread CPU time off over on
#             in nine back-to-back pairs, median ratio >=0.97).
#             Both BENCH_*.json artifacts are written before the gate
#             verdict so a regression still uploads its numbers
#   asan    — ASan+UBSan build, oracle/robustness/perf labels (the
#             fault, pooling, shared-body and cache-store paths are
#             where lifetime bugs hide)
#   tsan    — TSan build, oracle/fleet/edge labels (trace recording and
#             oracle counters ride the fleet's shard merge; prove they
#             stay race-free)
#   Each sanitizer stage builds every test carrying one of its labels
#   (the tests_<label> targets of tests/CMakeLists.txt).
#
# Usage: tools/run_checks.sh [stage ...]
#   No arguments runs every stage in the order above.
#   --fast is shorthand for "plain diff" (skip sanitizers and perf).
#
# Environment:
#   BUILD_DIR       plain build tree            (default: build)
#   ASAN_BUILD_DIR  ASan+UBSan build tree       (default: build-asan)
#   TSAN_BUILD_DIR  TSan build tree             (default: build-tsan)
#   JOBS            parallel build/test width   (default: nproc)
#   CMAKE_ARGS      extra args for every cmake configure (e.g. ccache
#                   launcher flags in CI)
#
# Any failure stops the script with a non-zero exit.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
CMAKE_ARGS="${CMAKE_ARGS:-}"

configure() {
  # $1 = build dir, rest = extra -D flags. CMAKE_ARGS is intentionally
  # word-split so CI can pass several flags in one variable.
  # shellcheck disable=SC2086
  cmake -B "$1" -S . ${CMAKE_ARGS} "${@:2}" >/dev/null
}

# Per-test ctest timeout (seconds). A hung test — a non-terminating
# event loop, a deadlocked shard merge — gets killed and named in
# Testing/Temporary/LastTest.log instead of stalling the whole job until
# the runner's 6-hour limit.
CTEST_TIMEOUT="${CTEST_TIMEOUT:-300}"

stage_plain() {
  echo "== plain build + full suite =="
  configure "$BUILD_DIR"
  cmake --build "$BUILD_DIR" -j"$JOBS"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS" \
      --timeout "$CTEST_TIMEOUT"
}

stage_diff() {
  echo "== differential harness (clean + mutation self-test) =="
  configure "$BUILD_DIR"
  cmake --build "$BUILD_DIR" -j"$JOBS" --target difftest fleetsim
  "./$BUILD_DIR/tools/difftest" --rounds 50 --seed 1
  "./$BUILD_DIR/tools/difftest" --rounds 50 --seed 1 --mutate stale-serve
  "./$BUILD_DIR/tools/difftest" --rounds 10 --seed 1 --mutate unkeyed-header

  # Every temporary file of this stage lives in one private directory, so
  # two checkouts running it at once never compare each other's reports.
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT

  echo "== oracle-off byte-identity =="
  # With --oracle off the report must not grow an "oracle" section, and
  # must stay bit-identical across thread counts with it on.
  if "./$BUILD_DIR/tools/fleetsim" --users 60 --json 2>/dev/null \
      | grep -q '"oracle"'; then
    echo "FAIL: oracle section present in an oracle-off report" >&2
    exit 1
  fi
  "./$BUILD_DIR/tools/fleetsim" --users 60 --oracle --trace-users 2 \
      --threads 1 --json 2>/dev/null > "$tmp/oracle_t1.json"
  "./$BUILD_DIR/tools/fleetsim" --users 60 --oracle --trace-users 2 \
      --threads 8 --json 2>/dev/null > "$tmp/oracle_t8.json"
  cmp "$tmp/oracle_t1.json" "$tmp/oracle_t8.json"

  echo "== flash-tier byte-identity =="
  # Flash-off edge reports must not grow a "flash" section, and flash-on
  # runs must stay bit-identical across thread counts (the async flash
  # reads and device-queue jitter are all on the virtual clock).
  if "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 --json \
      2>/dev/null | grep -q '"flash"'; then
    echo "FAIL: flash section present in a flash-off edge report" >&2
    exit 1
  fi
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 \
      --edge-capacity-mb 1 --edge-flash-mb 16 --threads 1 --json \
      2>/dev/null > "$tmp/flash_t1.json"
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 \
      --edge-capacity-mb 1 --edge-flash-mb 16 --threads 8 --json \
      2>/dev/null > "$tmp/flash_t8.json"
  cmp "$tmp/flash_t1.json" "$tmp/flash_t8.json"

  echo "== adversarial gate =="
  # Attack traffic against the default strict keying must audit clean,
  # and the planted vulnerability (--vulnerable-keying) must be
  # convicted with poisoning-class violations. Adversary-on runs stay
  # bit-identical across thread counts like everything else.
  "./$BUILD_DIR/tools/fleetsim" --users 40 --seed 7 --edge-pops 2 \
      --adversary --oracle --threads 1 --json 2>/dev/null \
      > "$tmp/adv_strict_t1.json"
  "./$BUILD_DIR/tools/fleetsim" --users 40 --seed 7 --edge-pops 2 \
      --adversary --oracle --threads 4 --json 2>/dev/null \
      > "$tmp/adv_strict_t4.json"
  cmp "$tmp/adv_strict_t1.json" "$tmp/adv_strict_t4.json"
  if grep -q '"poisoned_serves"' "$tmp/adv_strict_t1.json"; then
    echo "FAIL: strict keying reported poisoned serves" >&2
    exit 1
  fi
  "./$BUILD_DIR/tools/fleetsim" --users 40 --seed 7 --edge-pops 2 \
      --adversary --vulnerable-keying --oracle --json 2>/dev/null \
      > "$tmp/adv_vuln.json"
  if ! grep -q '"poisoned_serves"' "$tmp/adv_vuln.json"; then
    echo "FAIL: vulnerable keying escaped the oracle" >&2
    exit 1
  fi

  echo "== breakdown byte-identity =="
  # Without --breakdown the report must not grow a "phases" section, and
  # breakdown-on runs (phase histograms included) must stay bit-identical
  # across thread counts — all phase timing lives on the virtual clock.
  if "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 --json \
      2>/dev/null | grep -q '"phases"'; then
    echo "FAIL: phases section present in a breakdown-off report" >&2
    exit 1
  fi
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 \
      --edge-capacity-mb 1 --edge-flash-mb 16 --loss 0.01 --breakdown \
      --threads 1 --json 2>/dev/null > "$tmp/breakdown_t1.json"
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 \
      --edge-capacity-mb 1 --edge-flash-mb 16 --loss 0.01 --breakdown \
      --threads 8 --json 2>/dev/null > "$tmp/breakdown_t8.json"
  cmp "$tmp/breakdown_t1.json" "$tmp/breakdown_t8.json"
  grep -q '"phases"' "$tmp/breakdown_t1.json"

  echo "== h2 byte-identity =="
  # The --h2 ablation axis forces HTTP/2 fleet-wide; it must uphold the
  # same invariant as every other feature (bit-identical reports across
  # thread counts) and actually change the simulation (H2 reports differ
  # from H1). The forced-H2 difftest sweep keeps the oracle green on the
  # multiplexed transport specifically; the regular sweep above already
  # draws the protocol per round.
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 --h2 \
      --threads 1 --json 2>/dev/null > "$tmp/h2_t1.json"
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 --h2 \
      --threads 8 --json 2>/dev/null > "$tmp/h2_t8.json"
  cmp "$tmp/h2_t1.json" "$tmp/h2_t8.json"
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 \
      --threads 1 --json 2>/dev/null > "$tmp/h1_ref.json"
  if cmp -s "$tmp/h2_t1.json" "$tmp/h1_ref.json"; then
    echo "FAIL: --h2 produced a byte-identical report to H1" >&2
    exit 1
  fi
  "./$BUILD_DIR/tools/difftest" --rounds 10 --seed 1 --h2

  echo "== shared site catalog byte-identity =="
  # Edge shards that run at the same time share each site and content
  # version. Which shard generates a version first depends on scheduling
  # and must never show in a report.
  "./$BUILD_DIR/tools/fleetsim" --users 200 --edge-pops 8 --loss 0.01 \
      --oracle --threads 1 --json 2>/dev/null > "$tmp/catalog_t1.json"
  "./$BUILD_DIR/tools/fleetsim" --users 200 --edge-pops 8 --loss 0.01 \
      --oracle --threads 4 --json 2>/dev/null > "$tmp/catalog_t4.json"
  cmp "$tmp/catalog_t1.json" "$tmp/catalog_t4.json"

  echo "== fleetsim rejects bad input =="
  # An unknown flag, a number outside its flag's range, or a flag whose
  # prerequisite is missing must exit 2 with the usage text: never run a
  # different fleet than the one asked for, and never abort from a worker
  # thread.
  for bad in "--edge-pop 4" "--shard-size -3" "--max-visits 0" \
      "--sites 0" "--mean-gap-hours 0" "--edge-pops 2 --edge-capacity-mb -5" \
      "--edge-pops 1e12" "--edge-pops -3" "--threads 1e12" \
      "--trace-users -1" "--edge-flash-qd 1e12" "--loss 2" "--loss -1" \
      "--outage 3" "--loss abc" "--trace-out /dev/null" \
      "--edge-flash-mb 16" "--adversary" "--vulnerable-keying" \
      "--edge-pops 2 --adversary-rate 3"; do
    rc=0
    # shellcheck disable=SC2086
    "./$BUILD_DIR/tools/fleetsim" --users 8 $bad --json \
        >/dev/null 2>"$tmp/bad_input.err" || rc=$?
    if [ "$rc" -ne 2 ] ||
        ! grep -q '^usage: fleetsim' "$tmp/bad_input.err"; then
      echo "FAIL: fleetsim $bad exited $rc without the usage text" >&2
      exit 1
    fi
  done

  echo "== fleetsim fails when its output is lost =="
  # A trace or report that cannot be written must exit 1 with "cannot
  # write", never 0: the gates above compare fleetsim output with cmp.
  rc=0
  "./$BUILD_DIR/tools/fleetsim" --users 8 --trace-users 2 \
      --trace-out /dev/full --json >/dev/null 2>"$tmp/lost_output.err" \
      || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -q 'cannot write' "$tmp/lost_output.err"; then
    echo "FAIL: fleetsim --trace-out /dev/full exited $rc" >&2
    exit 1
  fi
  rc=0
  "./$BUILD_DIR/tools/fleetsim" --users 8 --json >/dev/full \
      2>"$tmp/lost_output.err" || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -q 'cannot write' "$tmp/lost_output.err"; then
    echo "FAIL: fleetsim --json >/dev/full exited $rc" >&2
    exit 1
  fi

  echo "== difftest rejects bad input =="
  # The same parser guards difftest: a typo in the gates above must exit
  # 2, never pass having run no round or a different seed.
  for bad in "--rounds abc" "--rounds 0" "--rounds 1 --sed 7" \
      "--rounds 1 --users 0" "--rounds 1 --users x" "--rounds 1 --visits 0" \
      "--rounds 1 --visits -2" "--rounds 1 --seed -1" "--rounds 1 stray"; do
    rc=0
    # shellcheck disable=SC2086
    "./$BUILD_DIR/tools/difftest" $bad >/dev/null 2>"$tmp/bad_input.err" \
        || rc=$?
    if [ "$rc" -ne 2 ] ||
        ! grep -q '^usage: difftest' "$tmp/bad_input.err"; then
      echo "FAIL: difftest $bad exited $rc without the usage text" >&2
      exit 1
    fi
  done
}

stage_perf() {
  echo "== perf smoke: engine_hotpath vs checked-in baseline =="
  configure "$BUILD_DIR"
  cmake --build "$BUILD_DIR" -j"$JOBS" --target engine_hotpath edge_offload
  # Artifact production is decoupled from the gate verdict: a gated
  # regression must still leave both BENCH_*.json files behind (CI
  # uploads them with if-no-files-found: error), because the numbers
  # that show the regression are exactly the ones worth keeping.
  hotpath_rc=0
  "./$BUILD_DIR/bench/engine_hotpath" --smoke \
      --out BENCH_hotpath.json \
      --baseline bench/baselines/hotpath.json || hotpath_rc=$?

  echo "== perf smoke: edge_offload flash sweep =="
  # Exercises the flash-enabled offload sweep end to end (RAM-only and
  # two-tier points plus the read-merge probe); no gating baseline yet.
  "./$BUILD_DIR/bench/edge_offload" --smoke > BENCH_edge_offload.json

  echo "== perf smoke: observability overhead gate =="
  # The phase breakdown must stay near-free: over nine back-to-back
  # one-thread pairs of the macro fleet, the median of each pair's process
  # CPU time with --breakdown off over with it on must be >=0.97.
  "./$BUILD_DIR/bench/engine_hotpath" --smoke --overhead-gate

  if [ "$hotpath_rc" -ne 0 ]; then
    echo "FAIL: engine_hotpath smoke macro below the baseline gate" >&2
    exit "$hotpath_rc"
  fi
}

# Builds and runs, in sanitizer tree $1, every test carrying one of the
# labels $2...: each label's tests_<label> target (tests/CMakeLists.txt)
# builds them all, and an unknown label fails the build. Building exactly
# those matters: ctest registers an unbuilt test target as an unlabelled
# *_NOT_BUILT placeholder, so `ctest -L` would skip it without saying so.
sanitizer_stage() {
  local dir=$1 label labels targets=()
  shift
  for label in "$@"; do targets+=("tests_$label"); done
  labels=$(IFS='|'; echo "$*")
  cmake --build "$dir" -j"$JOBS" --target "${targets[@]}"
  ctest --test-dir "$dir" --output-on-failure --timeout "$CTEST_TIMEOUT" \
      -L "^($labels)\$"
}

stage_asan() {
  echo "== ASan+UBSan — oracle + robustness + perf labels =="
  configure "$ASAN_BUILD_DIR" -DCATALYST_SANITIZE=address
  sanitizer_stage "$ASAN_BUILD_DIR" oracle robustness perf
}

stage_tsan() {
  echo "== TSan — oracle + fleet + edge labels =="
  configure "$TSAN_BUILD_DIR" -DCATALYST_SANITIZE=thread
  sanitizer_stage "$TSAN_BUILD_DIR" oracle fleet edge
}

stages=()
for arg in "$@"; do
  case "$arg" in
    --fast) stages+=(plain diff) ;;
    plain|diff|perf|asan|tsan) stages+=("$arg") ;;
    *)
      echo "usage: tools/run_checks.sh [--fast] [plain|diff|perf|asan|tsan ...]" >&2
      exit 2
      ;;
  esac
done
[ "${#stages[@]}" -eq 0 ] && stages=(plain diff perf asan tsan)

for stage in "${stages[@]}"; do
  "stage_${stage}"
done

echo "== all checks passed =="
