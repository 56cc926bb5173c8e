#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --test        # build and run the benchmark's tests

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; the first run configures and compiles it, later runs
only check that it is up to date. Build output goes to stderr, so the
last line of stdout is the benchmark's result object. A traced run
(--trace 1) also writes its spans to <build dir>/trace-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175


def build(build_dir, target):
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the system sources (src/) are missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        if args.test:
            return subprocess.run([build(build_dir, "perfbench_test")],
                                  timeout=RUN_TIMEOUT_S).returncode
        if not args.workload:
            parser.error("--workload is required")
        binary = build(build_dir, "perfbench")
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.trace:
            command += ["--trace-out", os.path.join(
                build_dir, f"trace-{args.workload}-{args.seed}.json")]
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
