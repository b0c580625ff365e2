#!/usr/bin/env python3
"""Run the repository benchmark for one workload.

    python3 perfbench/run.py --workload single_irregular --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. Builds the simulator's libraries and the
benchmark driver (perfbench/driver.cpp) in Release from source, into
$CARGO_TARGET_DIR (default .bench_build), then runs the driver and
prints its lines. The last line of stdout is the result: one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
See perfbench/README.md for the workloads and every metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("single_irregular", "trace_replay", "mix_sweep")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build(target):
    """Configure (once) and build the driver; build logs go to stderr."""
    cmake_dir = os.path.join(target, "perfbench-cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", ROOT, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release",
               "-DTRIAGE_BUILD_TESTS=OFF",
               "-DTRIAGE_BUILD_BENCH=OFF",
               "-DTRIAGE_BUILD_EXAMPLES=OFF",
               "-DCMAKE_PROJECT_INCLUDE=" +
               os.path.join(HERE, "attach.cmake")]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", cmake_dir, "--target", "perfbench_driver",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(cmake_dir, "perfbench_driver")


def git_describe():
    # The checkout may not be a git repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"],
                           cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny job sizes, for the self-test")
    a = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no simulator sources next to perfbench/; run from a full "
             "checkout of the repository")

    target = build_dir()
    driver = build(target)

    # A warm-checkpoint disk tier would let one seed's warm state leak
    # into another seed's result (trace checkpoints are keyed by path and
    # size), so the driver always runs without one.
    overrides = {k: v for k, v in sorted(os.environ.items())
                 if k.startswith("TRIAGE_")}
    env = {k: v for k, v in os.environ.items() if k != "TRIAGE_CKPT_DIR"}

    cmd = [driver, "--workload=" + a.workload, "--seed=%d" % a.seed,
           "--seconds=%s" % a.seconds, "--trace=%d" % a.trace,
           "--out=" + os.path.join(target, "perfbench-out")]
    if a.smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    sys.stderr.write(r.stderr)

    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    result = None
    for ln in lines:
        obj = json.loads(ln)
        if "provenance" in obj:
            obj["provenance"].update({
                "git_describe": git_describe(),
                "nproc": os.cpu_count(),
                "triage_env": overrides,
            })
            print(json.dumps(obj))
        elif "metrics" in obj:
            result = obj
        else:
            print(json.dumps(obj))
    if result is None:
        fail("driver exited with %d and printed no result" % r.returncode)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
