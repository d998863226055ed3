#!/usr/bin/env python3
"""Smoke-scale self-test of the PNW benchmark.

    python3 perfbench/selftest.py

Run from the repository root (about two minutes on a 2-core host). Checks:

1. every workload in BENCHMARK.json emits, untraced, every end-to-end
   metric and, traced, every per-layer metric, each with the unit
   BENCHMARK.json names and a finite value, in a result line with exactly
   the keys correct/attempted/failed/metrics;
2. two same-seed amazon_update runs give identical flips_per_put,
   lines_per_put and projected_lifetime_ops;
3. on every workload, a value planted behind the oracle's back makes the
   run exit non-zero with `"correct": false`.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
SEED = "7"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", SECONDS, "--trace", trace, *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def check_metrics(result, spec, where, failures):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["attempted"] < 1:
        failures.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    got = result["metrics"]
    for m in spec:
        v = got.get(m["name"])
        if v is None:
            failures.append(f"{where}: {m['name']} missing")
        elif v.get("unit") != m["unit"]:
            failures.append(f"{where}: {m['name']} unit {v.get('unit')} != {m['unit']}")
        elif not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            failures.append(f"{where}: {m['name']} value {v.get('value')} not finite")
    extra = set(got) - {m["name"] for m in spec}
    if extra:
        failures.append(f"{where}: unexpected metrics {sorted(extra)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    paper = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace, spec in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            code, result, err = run(w, trace)
            where = f"{w} trace={trace}"
            if code != 0 or result is None:
                failures.append(f"{where}: exit {code}: {err[-500:]}")
                continue
            check_metrics(result, spec, where, failures)
            if w == "amazon_update" and trace == "0":
                paper.append(result["metrics"])
            print(f"ok   {where}: {len(result['metrics'])} metrics", flush=True)
        code, result, _ = run(w, "0", "--plant-wrong-value")
        if code == 0 or (result is not None and result.get("correct") is not False):
            failures.append(f"{w}: planted wrong value not caught (exit {code})")
        else:
            print(f"ok   {w}: planted wrong value caught (exit {code})", flush=True)

    code, result, err = run("amazon_update", "0")
    if code != 0 or result is None:
        failures.append(f"amazon_update rerun: exit {code}: {err[-500:]}")
    elif paper:
        for k in ("flips_per_put", "lines_per_put", "projected_lifetime_ops"):
            a, b = paper[0][k]["value"], result["metrics"][k]["value"]
            if a != b:
                failures.append(f"amazon_update {k} differs between same-seed runs: {a} vs {b}")
        print("ok   amazon_update: paper-axis metrics repeat exactly", flush=True)

    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
