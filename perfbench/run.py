#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload uniform_cold --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the dhtjoin library plus the perfbench binary) under
.bench_build/, generates the workload's inputs (the seed draws the
request stream), serves them, checks every answer against its
reference, and prints one JSON line as the last line of standard output:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics of a closed-loop run;
--trace 1 reports the per-layer metrics of a single-client traced run.
The exit code is 0 only when every answer was correct and no query
failed or was shed (and, traced, both traced passes produced identical
work counters).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("uniform_cold", "nway_mix")

sys.path.insert(0, HERE)
import stats  # noqa: E402


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def cpu_times():
    """Aggregate CPU jiffies of this machine: (total, steal), or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


def build():
    """Configures and builds incrementally; returns the binary path."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, timeout=840)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except (OSError, subprocess.SubprocessError) as e:
        log("failed: %s" % e)
        return 1


def run(args):
    binary = build()
    run_dir = os.path.join(ROOT, ".bench_build", "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        subprocess.run(
            [binary, "prepare", "--workload", args.workload,
             "--seed", str(args.seed), "--dir", run_dir],
            check=True, stdout=sys.stderr, timeout=60)
        before = cpu_times()
        subprocess.run(
            [binary, "serve", "--workload", args.workload, "--dir", run_dir,
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            check=True, stdout=sys.stderr, timeout=args.seconds + 100)
        after = cpu_times()
        if before and after and after[0] > before[0]:
            # Time the hypervisor gave this machine's CPUs to others; runs
            # taken under heavy steal read slow for reasons outside the code.
            log("host steal: %.1f%% of CPU time during the run" % (
                100.0 * (after[1] - before[1]) / (after[0] - before[0])))
        with open(os.path.join(run_dir, "result.json")) as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = raw["mismatches"] == 0 and raw["failed"] == 0 and raw["shed"] == 0
    if raw["mismatches"]:
        log("%d answers differ from their reference" % raw["mismatches"])
    if args.trace:
        values = stats.layer_metrics(raw)
        units = LAYER_UNITS
        differing = stats.counter_mismatches(raw)
        if differing:
            correct = False
            log("work counters differ between the two traced passes: "
                + ", ".join(differing))
    else:
        values = stats.end_to_end_metrics(raw)
        units = END_TO_END_UNITS
        lat = stats.latency_summary([ns / 1e6 for ns in raw["latency_ns"]])
        if "p90" not in lat:
            log("warning: fewer than %d samples beyond p90; run longer"
                % stats.MIN_TAIL_SAMPLES)
        log("%s: %d latency samples, %s; in-process cache %d hits, %d misses, "
            "%d evictions" % (
                args.workload, lat["count"],
                ", ".join("%s %.3f ms" % (k, v) for k, v in lat.items() if k != "count"),
                raw["cache_hits"], raw["cache_misses"], raw["cache_evictions"]))
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"] + raw["shed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _units(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


END_TO_END_UNITS = _units("end_to_end")
LAYER_UNITS = _units("per_layer")

if __name__ == "__main__":
    sys.exit(main())
