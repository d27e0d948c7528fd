#!/usr/bin/env python3
"""Fleet replay benchmark.

    python3 perfbench/run.py --workload private|edge|churn --seed N \
        --seconds S --trace 0|1 [--users N]

Builds perfbench/fleet_bench (Release, into .bench_build/ at the root of
the checkout), then starts one fresh fleet_bench process per pass until
--seconds have elapsed (at least MIN_PASSES passes). Every pass replays
the same fleet: the workload's population drawn from --seed.

--trace 0 prints the end-to-end metrics. users_per_s and cpu_ms_per_user
time FleetRunner::run() in the fastest pass (noise from other tenants of
the machine only ever slows a pass down); peak_rss_mb (the pass process's
ru_maxrss) is the median over passes; setup_s (process start until
run() begins) the median over passes and SETUP_SAMPLES set-up-only
processes.

--trace 1 replays each pass's fleet a second time with one thread and the
self-profile timers on, times the layers' public functions on the
workload's own inputs, and prints the per-layer metrics, each the median
over passes. Spans go to .bench_build/spans/.

Every pass is checked (see check_pass). Each pass prints its report
digest and mean PLT reduction, so two builds can be shown to produce
byte-identical reports. The last line of stdout is {"correct",
"attempted", "failed", "metrics"}: attempted counts simulated page
visits, failed the visits of passes that crashed or failed a check (an
oracle violation fails its pass).
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "fleet_bench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

MIN_PASSES = {0: 3, 1: 1}  # by --trace
SETUP_SAMPLES = 15  # extra set-up-only processes per untraced run
PASS_TIMEOUT_S = 100
RUN_BUDGET_S = 60  # no pass starts later than this, whatever --seconds

# Per layer: the end-to-end metric it should move, on which workloads.
LAYERS = {
    "fleet": "users_per_s on edge",
    "workload": "setup_s and cpu_ms_per_user on private, churn",
    "server": "cpu_ms_per_user and peak_rss_mb on churn, private",
    "html": "cpu_ms_per_user on private, churn",
    "http": "cpu_ms_per_user on private",
    "cache": "cpu_ms_per_user on private",
    "client": "users_per_s on edge",
    "netsim": "cpu_ms_per_user on private, edge, churn",
    "edge": "users_per_s on edge (reads) and churn (writes); none on private",
    "io": "cpu_ms_per_user on churn only",
    "flash": "cpu_ms_per_user on churn only",
    "core": "peak_rss_mb and users_per_s on private",
    "check": "failed visits on churn",
    "obs": "none (tracing cost)",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds fleet_bench; raises on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                        "fleet_bench", "-j", jobs],
                       stdout=sys.stderr, check=True)


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_pass(args, mode):
    """One fleet_bench process; returns its JSON record (None on crash)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed)]
    if args.users is not None:
        cmd += ["--users", str(args.users)]
    cmd += mode
    spawned_ns = time.monotonic_ns()
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("pass timed out")
        return None
    if out.returncode != 0:
        log(f"pass exited {out.returncode}: {out.stderr.strip()}")
        return None
    try:
        rec = json.loads(out.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("pass printed no result")
        return None
    rec["setup_s"] = (rec["run_start_ns"] - spawned_ns) / 1e9
    return rec


def check_pass(rec, traced, first_digest):
    """Correctness problems of one pass (empty list: correct)."""
    problems = []
    report = rec["report"]
    if report["digest"] != first_digest:
        problems.append(f"report digest {report['digest']} differs from "
                        f"the first pass's {first_digest}")
    if report["users"] != rec["users"]:
        problems.append(f"{report['users']} users finished of {rec['users']}")
    if report["oracle"] and report["oracle_violations"] != 0:
        problems.append(f"{report['oracle_violations']} oracle violations")
    for pop in report["edge_pops"]:
        # Every PoP request resolves as exactly one hit, flash hit,
        # revalidated hit or miss — except requests a fault abandoned.
        ok = (pop["resolved"] <= pop["requests"] if report["faults"]
              else pop["resolved"] == pop["requests"])
        if not ok:
            problems.append(f"PoP {pop['pop']}: {pop['requests']} requests, "
                            f"{pop['resolved']} resolved")
    # The paper's result: revisits load faster under the strategy. Fault
    # timeouts give the per-revisit reduction a heavy tail, so faulty runs
    # are judged on its median instead of its mean.
    key = "plt_reduction_p50_pct" if report["faults"] else \
        "plt_reduction_mean_pct"
    if report["revisits"] > 0 and not report[key] > 0:
        problems.append(f"{key} = {report[key]}")
    if traced and rec["serialized"] != rec["traced_serialized"]:
        problems.append("the traced single-thread report differs from the "
                        f"{rec['threads']}-thread report")
    return problems


def summarize(spec, recs, setups, traced):
    """The run's metrics from its passes' records."""
    if traced:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for rec in recs:
            visits = rec["report"]["visits"]
            rec["layers"]["check.failed_visit_ratio"] = \
                rec["failed_visits"] / visits if visits else 0.0
        return {n: {"value": statistics.median(r["layers"][n] for r in recs),
                    "unit": u} for n, u in units.items()}
    users = recs[0]["users"]
    values = {
        "users_per_s": users / min(r["wall_s"] for r in recs),
        "cpu_ms_per_user": 1e3 * min(r["cpu_s"] for r in recs) / users,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in recs) /
        1024.0,
        "setup_s": statistics.median(setups + [r["setup_s"] for r in recs]),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--users", type=int,
                        help="override the workload's population size")
    args = parser.parse_args()

    with open(SPEC_PATH) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    traced = args.trace == 1
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{args.workload}-{args.seed}.jsonl")
    mode = ["--traced", "--spans", spans] if traced else []
    started = time.monotonic()
    recs, attempted, failed, passes = [], 0, 0, 0
    while passes < MIN_PASSES[args.trace] or \
            time.monotonic() - started < args.seconds:
        if time.monotonic() - started > RUN_BUDGET_S:
            break
        rec = run_pass(args, mode)
        passes += 1
        if rec is None:
            # A crashed pass fails every visit it would have made.
            visits = recs[-1]["report"]["visits"] if recs else 1
            attempted += visits
            failed += visits
            continue
        first_digest = (recs[0] if recs else rec)["report"]["digest"]
        problems = check_pass(rec, traced, first_digest)
        for p in problems:
            log(p)
        visits = rec["report"]["visits"]
        rec["failed_visits"] = visits if problems else 0
        attempted += visits
        failed += rec["failed_visits"]
        print(json.dumps({"pass": passes - 1,
                          "digest": rec["report"]["digest"],
                          "plt_reduction_mean_pct":
                              rec["report"]["plt_reduction_mean_pct"],
                          "ok": not problems}), flush=True)
        recs.append(rec)

    setups = []
    if recs and not traced:
        for _ in range(SETUP_SAMPLES):
            rec = run_pass(args, ["--setup-only"])
            if rec is not None:
                setups.append(rec["setup_s"])
    metrics = summarize(spec, recs, setups, traced) if recs else {}
    first = recs[0] if recs else {}
    context = {
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "users": first.get("users"), "threads": first.get("threads"),
        "build_type": first.get("build_type", "unknown"),
        "release": first.get("build_type") == "Release",
        "compiler": first.get("compiler", "unknown"),
        "nproc": os.cpu_count(), "commit": git_commit(),
    }
    if traced:
        context["layers"] = LAYERS
    if not context["release"]:
        log(f"WARNING: build type {context['build_type']} is not Release")
    print(json.dumps({"context": context}), flush=True)
    correct = bool(recs) and failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
