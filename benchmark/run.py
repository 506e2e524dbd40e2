#!/usr/bin/env python3
"""Build the program from this checkout and run one benchmark workload.

    python3 benchmark/run.py --workload csp|scatter --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
`neutral_bench` (benchmark/CMakeLists.txt, which compiles the checkout's
src/) into $CARGO_TARGET_DIR or .bench_build; later runs reuse the build.
Build output goes to stderr.  The benchmark's own stdout is passed through;
its last line is the JSON result.  Exits non-zero, printing no result, when
the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_root):
    cmake_dir = os.path.join(build_root, "cmake")
    binary = os.path.join(cmake_dir, "neutral_bench")
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j4", "--target", "neutral_bench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("benchmark: build step failed: " + " ".join(step))
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["csp", "scatter"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    binary = build(os.path.abspath(build_root))
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.txt"),
           "--golden-dir", os.path.join(ROOT, "tests", "golden"),
           "--out-dir", os.path.join(os.path.abspath(build_root), "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("benchmark: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("benchmark: neutral_bench exited %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("benchmark: malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
