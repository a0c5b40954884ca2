#!/usr/bin/env python3
"""Compares two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py --base A/*.json --new B/*.json

Records are the files run.py saves under <build>/results/ (one per run, with
the machine context). Untraced records are grouped by workload; for every
end-to-end metric of BENCHMARK.json the script prints each side's median and
quartile spread and a verdict against the metric's bound:

    regressed   the new median is worse than the base median by more than
                the bound
    unresolved  the base runs spread wider than the bound and not every new
                run beats every base run
    ok          otherwise

Answers are judged apart from the bounds: a workload regressed when any new
run checked a wrong answer (correct is false), when its actions fail where
no base run's did, or when its median share of failed actions lies above
every base run's.

Like bench/run_benches.sh, it refuses (exit 2) records from sanitizer
builds, and it refuses pairs whose machine context differs (CPU count, scan
kernel level, build type, compiler and flags, rows, partitions, worker x
thread shape, tenants, run length). Exit 1 when any metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# Context fields that may differ between comparable runs.
PER_RUN = {"seed", "trace"}


def refuse(message):
    print(f"compare: {message}", file=sys.stderr)
    sys.exit(2)


def load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
        context = record.get("context", {})
        if context.get("sanitizer", "none") != "none" or \
                "-fsanitize" in context.get("cxx_flags", ""):
            refuse(f"{path} comes from a sanitizer build")
        if not context.get("trace"):
            records.append((path, record))
    return records


def machine(record):
    return {k: v for k, v in record["context"].items() if k not in PER_RUN}


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q = statistics.quantiles(values, n=4)
    return median, (q[2] - q[0]) / abs(median)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    with open(SPEC, encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load(args.base), load(args.new)

    by_workload = {}
    for side, records in (("base", base), ("new", new)):
        for path, record in records:
            workload = record["context"]["workload"]
            entry = by_workload.setdefault(workload, {"base": [], "new": []})
            entry[side].append(record)
            reference = (entry["base"] or entry["new"])[0]
            if machine(record) != machine(reference):
                refuse(f"{path}: machine context differs from the other "
                       f"{workload} runs: {machine(record)} vs "
                       f"{machine(reference)}")

    regressed = False
    for workload, sides in sorted(by_workload.items()):
        if not sides["base"] or not sides["new"]:
            print(f"{workload}: runs on one side only, skipped")
            continue
        print(f"{workload}: {len(sides['base'])} base runs, "
              f"{len(sides['new'])} new runs")
        wrong = sum(not r["correct"] for r in sides["new"])
        b_failed = [r["failed"] / r["attempted"] for r in sides["base"]]
        n_failed = [r["failed"] / r["attempted"] for r in sides["new"]]
        failing = ((max(b_failed) == 0 and max(n_failed) > 0) or
                   statistics.median(n_failed) > max(b_failed))
        verdict = "regressed" if wrong or failing else "ok"
        regressed |= verdict == "regressed"
        print(f"  {'answers':22s} new runs with a wrong answer: {wrong}  "
              f"failed share base max {max(b_failed):.4%}, new median "
              f"{statistics.median(n_failed):.4%}  {verdict}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            b = [r["metrics"][name]["value"] for r in sides["base"]]
            n = [r["metrics"][name]["value"] for r in sides["new"]]
            b_med, b_spread = spread(b)
            n_med, n_spread = spread(n)
            worse = (n_med - b_med) if lower else (b_med - n_med)
            change = worse / abs(b_med) if b_med else 0.0
            all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
            if change > bound:
                verdict = "regressed"
                regressed = True
            elif b_spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {name:22s} base {b_med:12.5g} (±{b_spread:6.1%})  "
                  f"new {n_med:12.5g} (±{n_spread:6.1%})  "
                  f"worse by {change:+7.1%} (bound {bound:.1%})  {verdict}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
