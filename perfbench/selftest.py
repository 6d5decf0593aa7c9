#!/usr/bin/env python3
"""Self-test of the ronpath benchmark's command contract.

    python3 perfbench/selftest.py [--seconds 1]

For every workload in BENCHMARK.json it runs `command` untraced and
traced (seed 42) and checks that:
  * the last stdout line is {"correct", "attempted", "failed", "metrics"}
    with correct == true and failed == 0;
  * the untraced run names exactly the end_to_end metrics, the traced run
    exactly the per_layer metrics, each with its unit;
  * the untraced run also prints failed_frac, and both runs print the
    same exact work counts;
and that the command fails, printing no result, in a copy that holds
only BENCHMARK.json and the benchmark's own directories.
Exits 1 on the first failed check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


def check(cond, msg):
    if not cond:
        print("selftest FAIL: " + msg)
        sys.exit(1)


def invoke(spec, cwd, workload, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "42",
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    return proc.returncode, proc.stdout.splitlines()


def counts_line(lines, label):
    for line in lines:
        if line.startswith("counts %s:" % label):
            return line.split(":", 1)[1].strip()
    return None


def check_result(lines, expected, what):
    check(lines, what + ": no output")
    try:
        res = json.loads(lines[-1])
    except ValueError:
        check(False, what + ": last line is not JSON")
    check(list(res.keys()) == RESULT_KEYS, what + ": result keys %s" % list(res.keys()))
    check(res["correct"] is True and res["failed"] == 0, what + ": run reported a failure")
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1, what + ": attempted")
    names = {m["name"]: m["unit"] for m in expected}
    check(set(res["metrics"]) == set(names),
          what + ": metrics differ: %s" % sorted(set(res["metrics"]) ^ set(names)))
    for name, unit in names.items():
        check(res["metrics"][name]["unit"] == unit, "%s: unit of %s" % (what, name))
    return res


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for w in spec["workloads"]:
        name = w["name"]
        rc, plain = invoke(spec, ROOT, name, args.seconds, 0)
        check(rc == 0, "%s untraced exited %d" % (name, rc))
        check_result(plain, spec["end_to_end"], name + " untraced")
        check(any(l.startswith("metric failed_frac") for l in plain),
              name + ": failed_frac not printed")
        rc, traced = invoke(spec, ROOT, name, args.seconds, 1)
        check(rc == 0, "%s traced exited %d" % (name, rc))
        check_result(traced, spec["per_layer"], name + " traced")
        run_counts = counts_line(plain, "run")
        check(run_counts is not None, name + ": untraced run printed no counts")
        check(run_counts == counts_line(traced, "untraced") == counts_line(traced, "traced"),
              name + ": work counts differ between untraced and traced runs")
        print("selftest ok: %s" % name, flush=True)

    # Without the simulator's sources the command must fail cleanly.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    rc, lines = invoke(spec, bare, spec["workloads"][0]["name"], 1, 0)
    shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0, "command succeeded without the simulator's sources")
    check(not any(l.startswith("{") for l in lines), "bare run printed a result")
    print("selftest ok: fails without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
