#!/usr/bin/env python3
"""Runs one workload of the Hillview end-to-end benchmark.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

Run from the repository root. The script builds perfbench/ together with the
repository's src/ (CMake, Release) into $CARGO_TARGET_DIR, default
.bench_build/, spills the seed's flights partitions there, runs the binary,
checks that it emitted every metric BENCHMARK.json names for the mode (the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1) with its
unit, saves the full record with its machine context under
<build>/results/, and prints the context line and then the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits non-zero, printing no result, when the build, the run or the metric
check fails, and refuses to report from a sanitizer build. The held-out seed
for confirming a claim is 20191 (see README.md).
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore", "dashboard", "brush", "recover")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(out)


def build(out):
    """Configures once and builds the binary; returns its path."""
    cmake_dir = os.path.join(out, "perfbench")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any(os.path.exists(os.path.join(cmake_dir, f))
                   for f in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "perfbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_record(record, expected):
    for key in ("context", "correct", "attempted", "failed", "metrics"):
        if key not in record:
            fail(f"perfbench record has no '{key}'", 3)
    if record["context"].get("sanitizer", "none") != "none" or \
            "-fsanitize" in record["context"].get("cxx_flags", ""):
        fail("sanitizer build: its timings are not benchmark results", 3)
    if not isinstance(record["attempted"], int) or record["attempted"] < 1:
        fail("no action was attempted", 3)
    metrics = record["metrics"]
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            fail(f"metric {name} missing", 3)
        if metric.get("unit") != unit:
            fail(f"metric {name} has unit {metric.get('unit')}, not {unit}", 3)
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number", 3)
    return {name: metrics[name] for name in expected}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build_root()
    os.makedirs(out, exist_ok=True)
    binary = build(out)
    expected = expected_metrics(args.trace)

    data_dir = os.path.join(out, "data", f"{args.seed}-{os.getpid()}")
    results_dir = os.path.join(out, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", data_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}", 4)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no JSON record", 4)
    metrics = check_record(record, expected)

    with open(os.path.join(results_dir, stem + ".json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps({"context": record["context"]}))
    print(json.dumps({"correct": bool(record["correct"]),
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
