#!/usr/bin/env python3
"""Benchmark self-check: a short run of every workload, untraced and traced.

    python3 perfbench/selfcheck.py

Each run goes through run.py, which already fails unless every metric that
BENCHMARK.json names for the mode is emitted with its unit. On top of that
the script asserts the layer split the workloads were designed to show, so a
workload that silently stops exercising its layer is caught. Exit 1 when an
assertion fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("explore", "dashboard", "brush", "recover")
SEED = 7
SECONDS = 6


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace",
         str(trace)], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"FAIL {workload} trace={trace}: run.py exited "
              f"{proc.returncode}")
        sys.exit(1)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    e2e, layer, results = {}, {}, {}
    for w in WORKLOADS:
        results[w], e2e[w] = run(w, 0)
        _, layer[w] = run(w, 1)

    checks = []

    def expect(what, ok):
        checks.append((what, bool(ok)))

    for w in WORKLOADS:
        expect(f"{w}: every answer checked correct", results[w]["correct"])
    others = [w for w in WORKLOADS if w != "recover"]
    expect("every action answered on every workload",
           all(e2e[w]["answered_share"] == 1 and results[w]["failed"] == 0
               for w in WORKLOADS))
    expect("full_coverage_share < 1 only on recover (the mute window)",
           e2e["recover"]["full_coverage_share"] < 1 and
           all(e2e[w]["full_coverage_share"] == 1 for w in others))
    expect("core.cache.hit_share >= 0.8 on dashboard, at most 0.7 on explore",
           layer["dashboard"]["core.cache.hit_share"] >= 0.8 and
           layer["explore"]["core.cache.hit_share"] <= 0.7)
    expect("cluster.scheduler.grant_wait_p95_ms on dashboard > 10x explore",
           layer["dashboard"]["cluster.scheduler.grant_wait_p95_ms"] >
           10 * layer["explore"]["cluster.scheduler.grant_wait_p95_ms"])
    for metric in ("cluster.session.cancelled_share", "sketch.wasted_share"):
        expect(f"{metric} > 0 only on brush",
               layer["brush"][metric] > 0 and
               all(layer[w][metric] == 0 for w in WORKLOADS if w != "brush"))
    expect("spreadsheet.maps_per_action highest on brush",
           all(layer["brush"]["spreadsheet.maps_per_action"] >
               layer[w]["spreadsheet.maps_per_action"]
               for w in WORKLOADS if w != "brush"))
    expect("cluster.health.trips >= 1 only on recover",
           layer["recover"]["cluster.health.trips"] >= 1 and
           all(layer[w]["cluster.health.trips"] == 0 for w in others))
    for metric in ("cluster.worker.restarts", "cluster.faults.dropped",
                   "cluster.remote.replay_heals",
                   "cluster.remote.transport_retries",
                   "cluster.remote.stream_failed_share",
                   "core.redo_log.entries_replayed_per_heal"):
        expect(f"{metric} > 0 only on recover",
               layer["recover"][metric] > 0 and
               all(layer[w][metric] == 0 for w in others))
    expect("reactive.partials_per_stream > 0 only on explore and brush "
           "(recover asks for O5/O6 without streams)",
           all(layer[w]["reactive.partials_per_stream"] > 0
               for w in ("explore", "brush")) and
           all(layer[w]["reactive.partials_per_stream"] == 0
               for w in ("dashboard", "recover")))
    expect("storage.key_cache_hit_share > 0.5 on explore (sorts reuse keys)",
           layer["explore"]["storage.key_cache_hit_share"] > 0.5)
    expect("cluster.network.session_kb_max_min < 1.5 on dashboard (fair)",
           layer["dashboard"]["cluster.network.session_kb_max_min"] < 1.5)

    failed = 0
    for what, ok in checks:
        print(("PASS " if ok else "FAIL ") + what)
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
