#!/usr/bin/env python3
"""Builds the netclients benchmark from source and runs one workload.

    python3 perfbench/run.py --workload measure|crawl|serve|wire \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/ (CMake,
Release). The last line of stdout is the run's JSON result; the exit code
is non-zero when the build fails or any check fails.

    python3 perfbench/run.py --workload serve --repeat 10 [--seed 1]

runs the workload ten times, on seeds N, N+1, ..., and prints each
end-to-end metric's median, quartiles and spread (IQR / median).

    python3 perfbench/run.py --selftest

builds and runs the tests of the benchmark's own checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
# A run takes under a minute; one that hangs is stopped after this long
# and fails without a result.
RUN_TIMEOUT_S = 170


def threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds; all build output goes to stderr."""
    jobs = str(threads())
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def run_once(workload, seed, seconds, trace):
    env = dict(os.environ)
    env.setdefault("REPRO_THREADS", str(threads()))
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--work-dir", os.path.join(BUILD_DIR, "work")]
    if trace:
        spans = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-%d.jsonl" % (workload, seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the run and waited for it.
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def repeat(args):
    values = {}
    units = {}
    failed = 0
    for i in range(args.repeat):
        seed = args.seed + i
        code, out = run_once(args.workload, seed, args.seconds, args.trace)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if code != 0 or not result or not result["correct"]:
            failed += 1
            print("seed %d: FAILED (exit %d)" % (seed, code))
            continue
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"])
            for k, v in result["metrics"].items())))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print("%-36s %8s %14s %14s %14s %8s" %
          ("metric", "unit", "q1", "median", "q3", "iqr/med"))
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-36s %8s %14.6g %14.6g %14.6g %8.4f" %
              (name, units[name], q1, med, q3, spread))
    print("runs: %d, failed: %d" % (args.repeat, failed))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["measure", "crawl", "serve", "wire"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        test = os.path.join(BUILD_DIR, "perfbench_checks_test")
        if not os.path.exists(test):
            print("perfbench: GTest not found, checks test not built",
                  file=sys.stderr)
            return 1
        return subprocess.run([test], cwd=BUILD_DIR).returncode
    if args.repeat:
        return repeat(args)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
