#!/usr/bin/env python3
"""Build the PNW benchmark from source and run one workload.

    python3 perfbench/run.py --workload amazon_update --seed 1 --seconds 20 --trace 0

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default `.bench_build`), then run with the same
arguments; its standard output is passed through, so the last line is the
JSON result. Exits non-zero, without a result line, when the build fails,
the run fails, or a correctness oracle trips.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per-run wall-clock cap for the measuring binary (the build is not
# counted against it).
RUN_TIMEOUT_S = 170
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "src", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src"]


def seeds():
    with open(os.path.join(HERE, "seeds.json")) as f:
        return json.load(f)


def provenance():
    """The commit when run inside a git checkout of this repository,
    otherwise a digest of the sources the binary is built from."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.realpath(top.stdout.strip()) == os.path.realpath(ROOT):
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--"] + SOURCES,
                                       capture_output=True, text=True, timeout=30)
                return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for entry in SOURCES:
        path = os.path.join(ROOT, entry)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the default seed in seeds.json)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--plant-wrong-value", action="store_true",
                    help="self-test: corrupt one value behind the oracle's back")
    args = ap.parse_args()
    seed = args.seed if args.seed is not None else seeds()["default"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", os.path.join("perfbench", "out")]
    if args.plant_wrong_value:
        cmd.append("--plant-wrong-value")
    env["PERFBENCH_COMMIT"] = provenance()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
