#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload mixed_large --seeds 1-10 --seconds 30 \\
        [--trace 0] [--save perfbench/out/mixed.json] [--compare perfbench/baseline/mixed_large.json]

Run from the repository root. Every run is kept (no best-of-N). For each
metric it prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json. With `--compare`
it also prints how far each median moved from a saved summary's median,
as a share of that median, in the worse direction. A failed run stops the
script with a non-zero exit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--save", help="write every run and the summary to this file")
    ap.add_argument("--compare", help="a file written by --save to compare medians against")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end" if args.trace == "0" else "per_layer"]}
    seconds = args.seconds or bench["run_seconds"]

    runs = []
    for seed in seed_list(args.seeds):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or len(lines) < 2:
            sys.stderr.write(p.stderr[-3000:])
            print(f"seed {seed}: run failed (exit {p.returncode})")
            return 1
        runs.append({"seed": seed, "provenance": json.loads(lines[-2]), "result": json.loads(lines[-1])})
        print(f"seed {seed}: ok", flush=True)

    base = None
    if args.compare:
        with open(args.compare) as f:
            base = json.load(f)["summary"]
    summary = {}
    print(f"\n{args.workload}, {len(runs)} runs of {seconds:g} s, trace {args.trace}")
    print(f"{'metric':32s} {'median':>16s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} {'bound':>6s}"
          + ("  vs base" if base else ""))
    for name in spec:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        rel = (q3 - q1) / abs(med) if med else float("nan")
        bound = spec[name].get("bound")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": rel,
                         "unit": spec[name]["unit"], "values": vals}
        line = (f"{name:32s} {med:16.6g} {q1:14.6g} {q3:14.6g} {rel:8.4f} "
                f"{bound if bound is not None else '-':>6}")
        if base and name in base and base[name]["median"]:
            b = base[name]["median"]
            worse = (med - b) / abs(b) if spec[name]["better"] == "lower" else (b - med) / abs(b)
            line += f"  {worse:+.4f}"
        print(line)
    if args.save:
        os.makedirs(os.path.dirname(os.path.abspath(args.save)), exist_ok=True)
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                       "runs": runs, "summary": summary}, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
