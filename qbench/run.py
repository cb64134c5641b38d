#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 qbench/run.py --workload paper_queries --seed 1 --seconds 10 --trace 0
    python3 qbench/run.py --self-test

The first call configures and compiles the program's sources (../src)
together with the benchmark binary into .bench_build/qbench; later calls
rebuild only what changed. Build output goes to standard error, so the
last line of standard output is the run's JSON result.

--self-test runs every workload in miniature, traced and untraced,
checks that each run emits every metric BENCHMARK.json names with the
oracle satisfied, and checks that a deliberately corrupted reference
answer is reported as a wrong answer.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qbench")
BINARY = os.path.join(BUILD, "qbench")
TRACES = os.path.join(ROOT, ".bench_build", "qbench-traces")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD, exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "qbench", "-j", "4"],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))


def run(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    os.makedirs(TRACES, exist_ok=True)
    cmd = [BINARY] + args + ["--trace-dir", TRACES]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    if not capture:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out


def result_of(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    # ingest_mixed is kept runnable beside the ledger's workloads.
    workloads = [w["name"] for w in spec["workloads"]]
    if "ingest_mixed" not in workloads:
        workloads.append("ingest_mixed")
    for workload in workloads:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--mini"]
        for trace in (0, 1):
            code, out = run(base + ["--trace", str(trace)], capture=True)
            res = result_of(out) if code == 0 else None
            tag = "%s trace=%d" % (workload, trace)
            if res is None:
                problems.append(tag + ": no result (exit %d)" % code)
                continue
            missing = names[trace] - set(res["metrics"])
            if missing:
                problems.append(tag + ": missing " + ", ".join(sorted(missing)))
            if not res["correct"] or res["failed"] != 0:
                problems.append(tag + ": oracle reported wrong answers")
            print("%-24s ok: %d metrics, %d operations checked" %
                  (tag, len(res["metrics"]), res["attempted"]))
        code, out = run(base + ["--trace", "0", "--corrupt-reference"],
                        capture=True)
        res = result_of(out) if code == 0 else None
        if res is None or res["correct"] or res["failed"] == 0:
            problems.append(workload + ": corrupted reference not caught")
        else:
            print("%-24s ok: corrupted reference caught (%d failed)" %
                  (workload + " corrupt", res["failed"]))
    for p in problems:
        print("SELF-TEST FAILURE: " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    code, _ = run(["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
