#!/usr/bin/env python3
"""Build and run the end-to-end wall-clock benchmark.

usage (from the repository root):
    python3 perfbench/run.py --workload sw-dp|sweep3d-tasks|service-mix \
        --seed N --seconds S --trace 0|1 [more perfbench_e2e flags]

Configures perfbench/ with CMake (a Release build that compiles ../src),
builds it into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the perfbench_e2e binary and passes its standard output through: the
last line is the result JSON. Build logs go to standard error. Exits non-zero
without a result when the sources are missing, the build fails or the run
does not finish in time.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Builds perfbench_e2e if needed and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/CMakeLists.txt not found next to perfbench/; "
                 "run from a full checkout of the repository")
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "perfbench_e2e"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: build timed out")
        if r.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_e2e")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    binary = build()
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--trace-dir", traces, "--git-commit", git_commit()]
    cmd += sys.argv[1:]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                           text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run did not finish in %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
