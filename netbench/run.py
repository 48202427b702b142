#!/usr/bin/env python3
"""Builds and runs netbench, the network-simulator benchmark.

Run from the repository root:

  python3 netbench/run.py --workload phy-waveform-2gw --seed 1 --seconds 10 --trace 0
  python3 netbench/run.py --workload all --seed 1 --seconds 10 --trace 1
  python3 netbench/run.py --self-test

The first run configures netbench/ (which builds the fdb library from the
repository root, portable Release) into .bench_build/netbench and builds
it; later runs only bring that build up to date. Build output goes to
stderr, so the last line of stdout is the benchmark's result JSON.
Span dumps of traced runs land in .bench_build/netbench/traces.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "netbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("netbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no fdb sources (CMakeLists.txt, src/) next to netbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", "4"]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def git_sha():
    """HEAD's commit from .git's files, without running git (which would
    search parent directories); "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main(argv):
    if argv == ["--self-test"]:
        return subprocess.call([build("netbench_tests")])
    binary = build("netbench")
    cmd = [binary] + argv + [
        "--git-sha", git_sha(),
        "--trace-dir", os.path.join(BUILD, "traces"),
    ]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
