#!/usr/bin/env python3
"""Build and run the matprod benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe from source with dune (build tree in
.bench_build/), runs one workload on inputs generated from --seed, and
prints as the last line of stdout one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json; with --trace 1 the per_layer list. A
per-layer metric that a workload does not exercise (see "layers" in
perfbench/workloads.json) reads 0. The line before it carries the run's
report: machine facts (nproc, pool size), queries per phase, oracle
details and the exact work counters.

Any failure (build, invalid run, failed oracle, missing metric) exits
non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found (neither on PATH nor through opam)")


def build():
    cmd = dune_command() + [
        "build", "--root", ROOT, "--build-dir", BUILD_DIR,
        "./perfbench/bench.exe",
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    workloads = config["workloads"]
    if args.workload not in workloads:
        fail("unknown workload %r" % args.workload)
    build()

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    if done.returncode != 0:
        fail("workload exited with code %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("workload printed nothing")
    out = json.loads(lines[-1])
    measured = out["metrics"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail("%s measured in %s, BENCHMARK.json says %s"
                     % (name, measured[name]["unit"], unit))
            value = measured[name]["value"]
        elif (args.trace and args.workload
              not in config["layers"].get(name, {}).get("on", [args.workload])):
            value = 0.0
        else:
            fail("workload %s did not measure %s" % (args.workload, name))
        if value is None:
            fail("%s is not a number" % name)
        metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({"report": out["report"]}))
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
