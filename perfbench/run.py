#!/usr/bin/env python3
"""Builds perfbench from the enclosing source tree and runs one workload.

usage (from the repository root):
    python3 perfbench/run.py --workload api_cold|wire_zipf_recal|calibrate \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/ (CMake, Release) and is incremental; the
first run in a fresh checkout compiles the library. Build output and check
failures go to stderr. Stdout carries a stamp line, then the result line:
one JSON object with "correct", "attempted", "failed" and "metrics", the
metrics being BENCHMARK.json's end_to_end set (--trace 0) or its per_layer
set (--trace 1). A per-layer metric the workload does not exercise reads 0.
Exits 1 when the build, the run or a correctness check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench", "perfbench_harness_test"])
    steps.append([os.path.join(BUILD_DIR, "perfbench_harness_test")])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return False
        if done.returncode != 0:
            log(f"step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def source_digest():
    """SHA-256 over the library sources and build files the run measured."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 1
    if not build():
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", os.path.relpath(OUT_DIR, ROOT)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        run = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{args.workload} printed no result (exit {done.returncode})")
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = run["values"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not args.trace:
        log(f"{args.workload} did not measure {', '.join(missing)}")
        return 1
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    correct = bool(run["correct"]) and done.returncode == 0
    result = {"correct": correct, "attempted": int(run["attempted"]),
              "failed": int(run["failed"]), "metrics": metrics}

    stamp = dict(run["stamp"])
    stamp.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace, commit=commit(), source_sha256=source_digest())
    record = {"stamp": stamp, "values": values, "result": result}
    out = os.path.join(OUT_DIR, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
