#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                [--out FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

Runs perfbench/run.py once per seed on each workload, from the root of the
checkout, for BENCHMARK.json's run_seconds.

With --trace 0 it prints, for each end-to-end metric, the median of the runs
and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. A spread at or above a third of the bound is flagged.

With --trace 1 it also prints the exact work counters and flags which ones
repeated exactly: within each run (two identical counting passes), across
runs of the same seed (list a seed twice, as in --seeds 1,1,2,2) and across
all seeds of the set.

--out writes the whole summary as JSON.

--compare reads two --trace 0 summaries of the same code and checks, for
each end-to-end metric of each workload, that the second median is not
worse than the first by more than the metric's bound, and that each set's
spread (setup_s excepted) stays within the bound. It exits non-zero if
either check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("%s seed %d failed with code %d"
                         % (workload, seed, done.returncode))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def spread(values):
    """Median and interquartile distance over the median (None at 0)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else None


def compare(spec, first_path, second_path):
    first = json.load(open(first_path))["workloads"]
    second = json.load(open(second_path))["workloads"]
    ok = True
    for workload in first:
        for m in spec["end_to_end"]:
            a = first[workload]["metrics"][m["name"]]
            b = second[workload]["metrics"][m["name"]]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (b["median"] - a["median"]) / a["median"]
            good = worse <= m["bound"]
            if m["name"] != "setup_s":
                good = good and a["spread"] <= m["bound"] \
                    and b["spread"] <= m["bound"]
            ok = ok and good
            print("%-14s %-15s medians %-11.5g %-11.5g worse %+.3f spreads "
                  "%.3f %.3f bound %.2f %s"
                  % (workload, m["name"], a["median"], b["median"], worse,
                     a["spread"], b["spread"], m["bound"],
                     "ok" if good else "FAIL"))
    return ok


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    if args.compare:
        sys.exit(0 if compare(spec, *args.compare) else 1)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    summary = {"seeds": seeds, "trace": args.trace, "workloads": {}}
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            report, result = run_once(workload, seed, seconds, args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit("%s seed %d: correct=%s failed=%d"
                                 % (workload, seed, result["correct"],
                                    result["failed"]))
            runs.append((report, result))
            if not args.trace:
                print("%s seed %d: %s" % (workload, seed, json.dumps(
                    {k: round(v["value"], 4)
                     for k, v in result["metrics"].items()})), flush=True)
        entry = {"metrics": {}}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for _, r in runs]
            med, sp = spread(values)
            row = {"median": med, "spread": sp, "values": values}
            if "bound" in m:
                row["bound"] = m["bound"]
                row["steady"] = sp is not None and sp < m["bound"] / 3
            entry["metrics"][m["name"]] = row
        if args.trace:
            counters = {}
            for name in runs[0][0]["work_counters"]:
                by_seed = {}
                for seed, (rep, _) in zip(seeds, runs):
                    by_seed.setdefault(seed, []).append(
                        rep["work_counters"][name])
                per_run = [c for cs in by_seed.values() for c in cs]
                counters[name] = {
                    "exact_within_run": all(c["exact"] for c in per_run),
                    "repeats_for_same_seed": all(
                        len({c["per_batch"] for c in cs}) == 1
                        for cs in by_seed.values()),
                    "same_across_seeds":
                        len({c["per_batch"] for c in per_run}) == 1,
                    "per_batch": {str(seed): [c["per_batch"] for c in cs]
                                  for seed, cs in by_seed.items()},
                }
            entry["work_counters"] = counters
        summary["workloads"][workload] = entry
        print("== %s" % workload)
        for name, row in entry["metrics"].items():
            flag = ""
            if "bound" in row:
                flag = "ok" if row["steady"] else "WIDE (bound %.2f)" % row["bound"]
            sp = "-" if row["spread"] is None else "%.3f" % row["spread"]
            print("  %-40s median %-12.6g spread %6s %s"
                  % (name, row["median"], sp, flag))
        for name, c in entry.get("work_counters", {}).items():
            print("  counter %-28s exact in run: %-5s same seed: %-5s "
                  "all seeds: %s" % (name, c["exact_within_run"],
                                     c["repeats_for_same_seed"],
                                     c["same_across_seeds"]))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
