#!/usr/bin/env python3
"""Builds the p2KVS benchmark binary from this checkout and runs one workload.

Run from the root of the checkout:

    python3 perfbench/run.py --workload sync_1c --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The store and the benchmark binary are built (Release) into .bench_build/ at
the root of the checkout; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the binary's JSON result.
--trace 1 also writes a Chrome/Perfetto trace to .bench_build/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "p2kvs_perfbench")
WORKLOADS = ["sync_1c", "mixed_4c", "fanout_2c", "tcp_open"]


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "p2kvs_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that every output checker can fail")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    cmd = [BINARY]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
