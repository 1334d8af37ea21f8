#!/usr/bin/env python3
"""Smoke test of the benchmark at its smallest size: one unit per workload.

    python3 simbench/smoke_test.py

Run from the repository root. For every workload, untraced and traced, it
checks the result line against BENCHMARK.json (metric names and units, no
failed operation, non-zero end-to-end values). It then checks that the
benchmark refuses to run, without a result, in a directory holding only
BENCHMARK.json and simbench/.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("simbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p = run(ROOT, w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            if p.returncode != 0:
                failures.append(f"{where}: exit {p.returncode}: {p.stderr[-500:]}")
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(res)}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                failures.append(f"{where}: correct={res['correct']} failed={res['failed']} "
                                f"attempted={res['attempted']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                failures.append(f"{where}: metrics {got} != declared {want}")
            if trace == 0 and any(v["value"] <= 0 for v in res["metrics"].values()):
                failures.append(f"{where}: a non-positive end-to-end value: {res['metrics']}")

    # Without the simulator sources the benchmark must fail, printing no result.
    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "simbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run(bare, spec["workloads"][0]["name"], 0)
    if p.returncode == 0 or p.stdout.strip():
        failures.append(f"bare directory: exit {p.returncode}, stdout {p.stdout!r}")
    shutil.rmtree(bare)

    for f in failures:
        print("FAIL", f)
    print("smoke:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
