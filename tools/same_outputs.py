#!/usr/bin/env python3
"""Checks that two builds print the same e11-e15 results.

  python3 tools/same_outputs.py PARENT_BUILD CHANGE_BUILD

PARENT_BUILD and CHANGE_BUILD are CMake build directories holding the
bench binaries (bench/e11_network ... bench/e15_schedule). Each bench runs
from both with --format json at --jobs 1 and at --jobs 8, at the trial
counts of the determinism gates in bench/CMakeLists.txt. What may differ
between two runs is dropped before the compare, by the rule of
bench/determinism_json.cmake: every section whose name carries
"[wall-clock]", plus the "build" stamp section and the "jobs" field.
Prints one line per (bench, jobs) pair and exits 1 if any pair differs.
"""
import json
import os
import re
import subprocess
import sys

BENCHES = ("e11_network", "e12_gateway_diversity", "e13_fleet",
           "e14_resilience", "e15_schedule")
JOBS = (1, 8)


def gate_trials():
    """The <bench>:<trials> list of the determinism gates."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "bench", "CMakeLists.txt")
    with open(path) as f:
        entries = re.search(r"foreach\(det_entry ([^)]*)\)", f.read())
    if entries is None:
        sys.exit("same_outputs: no determinism gate list in " + path)
    trials = dict(e.split(":") for e in entries.group(1).split())
    missing = [b for b in BENCHES if b not in trials]
    if missing:
        sys.exit("same_outputs: no gate trial count for " + ", ".join(missing))
    return trials


def results(build, bench, trials, jobs):
    """The comparable part of one bench run's JSON report."""
    binary = os.path.join(build, "bench", bench)
    out = subprocess.run([binary, "--trials", trials, "--jobs", str(jobs),
                          "--format", "json"],
                         check=True, capture_output=True).stdout
    doc = json.loads(out)
    doc.pop("jobs", None)
    doc["sections"] = [s for s in doc["sections"]
                       if "[wall-clock]" not in s["name"]
                       and s["name"] != "build"]
    return doc


def first_difference(a, b):
    """Names the first section (or top-level field) where a and b differ."""
    for sa, sb in zip(a["sections"], b["sections"]):
        if sa != sb:
            return "section '%s'" % sa["name"]
    if len(a["sections"]) != len(b["sections"]):
        return "section count %d vs %d" % (len(a["sections"]),
                                           len(b["sections"]))
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return "field '%s'" % keys[0]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    parent, change = sys.argv[1:]
    trials = gate_trials()
    differ = 0
    for bench in BENCHES:
        for jobs in JOBS:
            a = results(parent, bench, trials[bench], jobs)
            b = results(change, bench, trials[bench], jobs)
            if a == b:
                verdict = "same"
            else:
                differ += 1
                verdict = "DIFFERS: " + first_difference(a, b)
            print("%-22s --trials %s --jobs %d: %s" %
                  (bench, trials[bench], jobs, verdict))
    print("%d of %d runs differ" % (differ, len(BENCHES) * len(JOBS)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
