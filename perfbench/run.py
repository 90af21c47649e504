#!/usr/bin/env python3
"""Build the dataplane benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library and the benchmark are built
(optimized) under .bench_build/perfbench; build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
Exits non-zero without a result when the repository sources are missing or
the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the benchmark target (incremental)."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "nuevomatch", "online.hpp")):
        log("library sources not found under " + os.path.join(ROOT, "src"))
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2
    out_dir = os.path.join(BUILD, "out")
    cmd = [binary] + argv + ["--git-sha", git_sha(), "--out-dir", out_dir]
    # Replace this process, so the benchmark leaves no child behind if the
    # caller stops it.
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    os.execv(binary, cmd)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
