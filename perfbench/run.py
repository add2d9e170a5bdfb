#!/usr/bin/env python3
"""Builds and runs the real-clock end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload ycsbt-udp --seed 1 --seconds 10 --trace 0

Configures and builds `perfbench/` (which compiles the repository's `src/`
library) into `$CARGO_TARGET_DIR/perfbench`, or `.bench_build/perfbench` when
that variable is unset, then runs `bench_e2e` with the same arguments. Build
output goes to stderr; the benchmark's own output goes to stdout, whose last
line is the JSON result. Exits non-zero, without a result, if the build fails
or the benchmark does not produce one.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("ycsbt-udp", "retwis-zipf", "ycsbb-cache")
# Bound on one benchmark process. A 20-second run takes about 30 s with its
# set-ups, warm-ups and post-run checks.
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    # Configuring an existing tree is a quick no-op, and re-running it
    # recovers a tree whose first configure was interrupted.
    subprocess.run(
        ["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    try:
        binary = build(source_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        print("perfbench: no result from the benchmark", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
