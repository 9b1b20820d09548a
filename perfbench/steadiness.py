#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end figures are steady.

    python3 perfbench/steadiness.py [--workloads a,b] [--seconds S]

Run from the root of a checkout. For each workload (default: every
workload in BENCHMARK.json) it makes two sets of ten untraced runs, one
set after the other, with seeds 1-10 and 101-110, each run --seconds long
(default: BENCHMARK.json's run_seconds). For each end-to-end metric it
prints both sets' median and quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median, and how much worse the second set's median is
than the first's. A metric passes when its second median is not worse by
more than its bound and, except for setup_s, each spread is within the
bound. setup_s is one cold set-up per run: a second set-up in the same
process would be a warm one, so no run can average it, and only the
median over a set's runs is compared. The share of failed ops must be
identical in both sets. Results go to perfbench/out/steadiness.json; the
exit code is 0 only when every test passes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SEED_BASES = (1, 101)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("run failed: %s (exit %d)" % (" ".join(cmd),
                                                         done.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    report = {"runs": RUNS, "seconds": args.seconds, "workloads": {}}
    all_ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k, base in enumerate(SEED_BASES):
            results = []
            for seed in range(base, base + RUNS):
                result = run_once(workload, seed, args.seconds)
                results.append(result)
                print("%s set %d seed %d: %s" % (
                    workload, k + 1, seed,
                    " ".join("%s=%.6g" % (n, v["value"])
                             for n, v in result["metrics"].items())),
                      flush=True)
            sets.append(results)

        rows = {}
        print("\n%s (%d sets of %d runs, %gs each)" % (
            workload, len(SEED_BASES), RUNS, args.seconds))
        print("%-14s %-6s %12s %12s %12s %8s %7s %8s" % (
            "metric", "set", "Q1", "median", "Q3", "spread", "bound",
            "vs set 1"))
        for m in metrics:
            name = m["name"]
            per_set = []
            for k, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                drift = worse_by(per_set[0]["median"], med, m["better"]) \
                    if per_set else 0.0
                spread_ok = name == "setup_s" or spread <= m["bound"]
                drift_ok = drift <= m["bound"]
                all_ok = all_ok and spread_ok and drift_ok
                per_set.append({"values": values, "q1": q1, "median": med,
                                "q3": q3, "spread": spread,
                                "worse_than_set1": drift,
                                "spread_ok": spread_ok, "drift_ok": drift_ok})
                print("%-14s %-6d %12.6g %12.6g %12.6g %7.1f%% %6.0f%% "
                      "%7.1f%%%s" % (
                          name, k + 1, q1, med, q3, 100 * spread,
                          100 * m["bound"], 100 * drift,
                          "" if spread_ok and drift_ok else "  FAIL"))
            rows[name] = per_set
        shares = []
        for results in sets:
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            shares.append([failed, attempted])
        share_ok = len({f * 1.0 / a for f, a in shares}) == 1 and all(
            r["correct"] for results in sets for r in results)
        all_ok = all_ok and share_ok
        print("failed/attempted per set: %s%s" % (
            ", ".join("%d/%d" % (f, a) for f, a in shares),
            "" if share_ok else "  FAIL"))
        report["workloads"][workload] = {"metrics": rows,
                                         "failed_attempted": shares,
                                         "share_ok": share_ok}

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1)
    print("\nsteady" if all_ok else "\nNOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
