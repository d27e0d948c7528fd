#!/usr/bin/env bash
# Re-records the perf gate in bench/baselines/hotpath.json as the median
# macro events/sec of five back-to-back `engine_hotpath --smoke` runs on
# this machine (one smoke run is too noisy to pin a gate on). Run this
# when a deliberate change moves hot-path throughput (either direction)
# or when the CI reference hardware changes; commit the updated baseline
# with the change that moved the number and say why in the commit
# message.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
RUNS=5
BASELINE=bench/baselines/hotpath.json

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$JOBS" --target engine_hotpath

outs=()
trap 'rm -f "${outs[@]}"' EXIT
for ((i = 1; i <= RUNS; ++i)); do
  out="$(mktemp)"
  outs+=("$out")
  "./$BUILD_DIR/bench/engine_hotpath" --smoke --out "$out" >/dev/null
done

python3 - "$BASELINE" "${outs[@]}" <<'EOF'
import json, statistics, sys

baseline_path, run_paths = sys.argv[1], sys.argv[2:]
runs = []
for path in run_paths:
    with open(path) as f:
        runs.append(json.load(f)["macro"]["events_per_sec"])
with open(baseline_path) as f:
    baseline = json.load(f)

eps = round(statistics.median(runs))
baseline["gate"]["events_per_sec"] = eps
with open(baseline_path, "w") as f:
    json.dump(baseline, f, indent=2)
    f.write("\n")
print("smoke macro events/sec: " + ", ".join(f"{r:.0f}" for r in runs))
print(f"updated {baseline_path}: gate.events_per_sec = {eps} "
      f"(median of {len(runs)})")
EOF
