#!/usr/bin/env python3
"""Build and run the ronpath benchmark.

One workload per call, from the root of a ronpath checkout:

    python3 perfbench/run.py --workload ron2003 --seed 1 --seconds 20 --trace 0

builds perfbench/ (optimised, into .bench_build/perfbench; the first call
compiles the simulator from ../src) and runs the named workload. The last
line of stdout is the result object {"correct", "attempted", "failed",
"metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1 (spans are written to .bench_build/traces/).

Steadiness report: --steady N runs the workload N times with seeds
--seed .. --seed+N-1 and prints each metric's median, quartiles and
quartile spread against its bound in BENCHMARK.json. --save FILE keeps
the values; --against FILE compares the medians with an earlier set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ron2003", "capped_scale", "traffic_matrix")
# A run measures --seconds, plus set-up, cross-checks and one run that
# may straddle the deadline; no call may exceed 180 s.
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.h")):
        fail("simulator sources not found next to perfbench/ (expected ../src)")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build step failed: " + " ".join(cmd))
    binary = os.path.join(bdir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs one workload invocation; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def steady(binary, args):
    specs = load_metric_specs()
    values = {}
    for i in range(args.steady):
        seed = args.seed + i
        rc, lines = run_once(binary, args.workload, seed, args.seconds, args.trace, False)
        res = result_of(lines)
        if rc != 0 or res is None or not res["correct"]:
            fail("run with seed %d failed (exit %d)" % (seed, rc))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in res["metrics"].items())), flush=True)
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["values"]
    print("%-24s %12s %12s %12s %8s %7s %s" % ("metric", "median", "q1", "q3", "spread",
                                             "bound", "verdict"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = specs.get(name, {}).get("bound")
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else "WIDE"
            if name in earlier:
                # How much worse this set's median is than the earlier one's.
                ratio = med / statistics.median(earlier[name])
                worse = ratio - 1.0 if specs[name]["better"] == "lower" else 1.0 / ratio - 1.0
                verdict += " worse-by %+.3f %s" % (worse, "ok" if worse <= bound else "REGRESSED")
        print("%-24s %12.6g %12.6g %12.6g %8.4f %7s %s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound, verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": values}, f, indent=1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="steadiness report over N seeds instead of one run")
    p.add_argument("--save", help="with --steady: write the measured values here")
    p.add_argument("--against", help="with --steady: compare medians with a saved set")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.steady > 0:
        if args.steady < 4:
            fail("--steady needs at least 4 runs for quartiles")
        steady(binary, args)
        return 0
    rc, lines = run_once(binary, args.workload, args.seed, args.seconds, args.trace, True)
    if rc != 0:
        fail("perfbench exited with %d" % rc)
    if result_of(lines) is None:
        fail("perfbench printed no result object")
    return 0


if __name__ == "__main__":
    sys.exit(main())
