#!/usr/bin/env python3
"""Builds the served-path benchmark from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of the source tree. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the run's
bundle file and spans go under the same build root and nothing else is
written. The last line of standard output is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scs_uniform", "retrieval_zipf", "live_updates")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"# {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += generator
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs]):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        return 1
    workdir = os.path.join(root, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        traces = os.path.join(root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(traces, args.workload + ".spans.tsv")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
