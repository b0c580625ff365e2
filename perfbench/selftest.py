#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it
runs perfbench/run.py at smoke size, once untraced and once traced, and
checks that every output check passed (correct, no failed job) and that
every metric BENCHMARK.json names is printed with its unit. Exits 0 when
all pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None, "exit %d: %s" % (r.returncode, r.stderr[-400:])
    return json.loads(lines[-1]), ""


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s --trace %d" % (w["name"], trace)
            before = len(problems)
            res, err = run(w["name"], trace)
            if res is None:
                problems.append("%s: no result (%s)" % (label, err))
                continue
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (label, sorted(res)))
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: checks failed (%d of %d jobs)" %
                                (label, res["failed"], res["attempted"]))
            got = res["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            for name, unit in want.items():
                if name not in got:
                    problems.append("%s: metric %s missing" % (label, name))
                elif got[name]["unit"] != unit:
                    problems.append("%s: %s unit %s, expected %s" %
                                    (label, name, got[name]["unit"], unit))
            for name in set(got) - set(want):
                problems.append("%s: unexpected metric %s" % (label, name))
            print("%-30s %s" % (label,
                                 "ok" if len(problems) == before else "FAIL"))
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
