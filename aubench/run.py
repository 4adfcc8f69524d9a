#!/usr/bin/env python3
"""One command per workload for the aujoin end-to-end benchmark.

    python3 aubench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an aujoin checkout. It builds the library and the
benchmark driver from source (CMake + Ninja, into $CARGO_TARGET_DIR or
.bench_build), generates the workload's inputs for the seed into
.bench_work/ (outside any timed region), runs the workload in a fresh
process and prints its result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload
twice, untraced and traced, and prints the per-layer metrics of the
traced run plus the tracing overhead (the traced run's join_s over the
untraced one's, minus one). The traced run also leaves a Chrome
trace-event file in .bench_work/. See aubench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("selfjoin_verify", "rxs_sharded", "serve_sharded", "serve_append")
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print("aubench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "api", "engine.h")):
        fail("no aujoin sources under %s/src; run from a checkout root" % root)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    binary = os.path.join(build_dir, "aubench")
    if not os.path.isfile(os.path.join(build_dir, "build.ninja")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return binary


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_once(binary, args, work, trace):
    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--dir", work]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=170)
    for line in proc.stdout.splitlines()[:-1]:
        print(line)
    result = last_json(proc.stdout)
    if proc.returncode != 0 or result is None:
        fail("workload run failed (exit %d)" % proc.returncode)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        gen = [binary, "gen", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--dir", work]
        if subprocess.run(gen, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=170).returncode != 0:
            fail("input generation failed")
        if not args.trace:
            result = run_once(binary, args, work, False)
        else:
            plain = run_once(binary, args, work, False)
            result = run_once(binary, args, work, True)
            # join_s is the one end-to-end metric a traced run also
            # measures, so it carries the tracing overhead.
            base = plain["metrics"]["join_s"]["value"]
            traced = result["metrics"].pop("trace.join_s")["value"]
            result["metrics"]["trace.overhead"] = {
                "value": traced / base - 1 if base > 0 else 0, "unit": "ratio"}
            result["attempted"] += plain["attempted"]
            result["failed"] += plain["failed"]
            result["correct"] = result["correct"] and plain["correct"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
