#!/usr/bin/env python3
"""Compares two netbench binaries over alternating pairs of runs.

  python3 tools/pairs.py PARENT_NETBENCH CHANGE_NETBENCH \\
      --workload fleet-analytic-10k [--seed 1] [--seconds 20] [--pairs 10] \\
      [--jobs J]

Each pair runs both binaries once, one after the other, on the same
workload and seed; the order flips every pair (parent first on even
pairs), so a slow spell of a shared host lands on both sides alike. For
every end-to-end metric that BENCHMARK.json lists (read only, never
written), it prints the parent's and the change's medians, the median of
the per-pair ratios change/parent, how many pairs the change won (a win
is a strictly better value in the metric's "better" direction), the
parent's interquartile range as a percentage of its median, and whether
the change's median beats the parent's by more than that range.

A run that exits non-zero, prints no result JSON, reports
"correct": false or any failed trial stops the script with exit 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run_once(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("pairs: %s exited %d\n%s" % (binary, proc.returncode,
                                               proc.stderr))
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        sys.exit("pairs: %s reported an incorrect run: %s" % (binary,
                                                             lines[-1]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--jobs", type=int, default=0,
                   help="netbench --jobs (default: netbench's own)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        sys.exit("pairs: --pairs must be at least 1")

    metrics = end_to_end_metrics()
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args))
        print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)

    print("%s seed %d, %d pairs of %g s" % (args.workload, args.seed,
                                            args.pairs, args.seconds))
    print("%-18s %14s %14s %9s %6s %9s %s" %
          ("metric", "parent p50", "change p50", "ratio p50", "wins",
           "IQR%", "beyond IQR"))
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        par = [r[name] for r in runs["parent"]]
        chg = [r[name] for r in runs["change"]]
        ratios = [c / b for c, b in zip(chg, par) if b != 0]
        wins = sum(1 for c, b in zip(chg, par) if (c > b if higher else c < b))
        par_med, chg_med = statistics.median(par), statistics.median(chg)
        spread = iqr(par)
        gain = chg_med - par_med if higher else par_med - chg_med
        print("%-18s %14.6g %14.6g %9.4f %3d/%-2d %8.1f%% %s" %
              (name, par_med, chg_med,
               statistics.median(ratios) if ratios else float("nan"),
               wins, args.pairs,
               100.0 * spread / par_med if par_med else float("nan"),
               "yes" if gain > spread else "no"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
