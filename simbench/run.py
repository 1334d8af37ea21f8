#!/usr/bin/env python3
"""Builds the simulator-stack benchmark from this checkout and runs it.

    python3 simbench/run.py --workload device_gemm|serve_stream|functional_gemm \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; cmake's output goes to stderr, so the last
line of stdout is the benchmark's JSON result. A traced run also writes a
Chrome trace of its spans to <build>/simbench_trace_<workload>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("device_gemm", "serve_stream", "functional_gemm")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("simbench: no simulator sources (src/CMakeLists.txt) in this checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "simbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "simbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    out = os.path.join(build_dir(), "simbench")
    try:
        binary = build(out)
    except subprocess.CalledProcessError as e:
        sys.exit(f"simbench: build failed ({e})")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out, f"simbench_trace_{args.workload}.json")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
