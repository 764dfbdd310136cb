#!/usr/bin/env python3
"""Entry point of the parhop benchmark (BENCHMARK.json at the repo root).

Builds perfbench/ -- and with it the parhop library, from the repository's
sources -- as an optimized Release build in .bench_build/perfbench, then runs
one workload and passes its output through. The last line of standard output
is the result JSON; the exit code is the benchmark's.

    python3 perfbench/run.py --workload road-serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload road-update --seed 1 --seconds 10 --trace 1

Build output goes to standard error. A failed build exits 1 and prints no
result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if (shutil.which("ninja")
            and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD, "perfbench")
    cmd = [exe] + sys.argv[1:] + ["--workdir", os.path.join(BUILD, "work"),
                                  "--commit", git_commit()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
