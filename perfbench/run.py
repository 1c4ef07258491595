#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload of it.

Run from the root of the repository:

    python3 perfbench/run.py --workload point_rw --seed 1 --seconds 10 --trace 0

The first run configures and builds the engine and the driver into
.bench_build/ (CMake, Release); later runs only relink what changed. The
driver's readable lines are passed through, and the last line printed is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Without
--trace the metrics are the end-to-end ones listed in BENCHMARK.json; with
--trace 1 they are the per-layer ones, where a metric the workload does not
exercise reads 0. Exits nonzero, without a result line, when the build
fails, the driver crashes or overruns, or its metrics disagree with
BENCHMARK.json; exits 1 after the result line when a result was wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if configure.returncode != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    compile_ = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                              stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
    if compile_.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = expected_metrics(args.trace == 1)
    driver = build()
    data_dir = os.path.join(BUILD_DIR, "data")
    try:
        run = subprocess.run(
            [driver, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", data_dir],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail("driver exited with code %d and no result" % run.returncode)
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(expected))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    for name, metric in metrics.items():
        if metric["unit"] != expected[name]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (name, metric["unit"], expected[name]))
    missing = [name for name in expected if name not in metrics]
    if missing and not args.trace:
        fail("end-to-end metrics not reported: " + ", ".join(missing))
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    ordered = {name: metrics[name] for name in expected}

    for line in lines[:-1]:
        print(line)
    if missing:
        print("# not exercised by this workload (reported as 0): "
              + ", ".join(missing))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": ordered}))
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
