#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload browse --seed 1 --seconds 20 --trace 0

The binary (perfbench/src, built against the repository's own libraries
into .bench_build/) prints its result as the last line of stdout. Build
output and diagnostics go to stderr. The exit code is the binary's: 0 only
when the run completed and every correctness check passed.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "pdcu_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; output goes to stderr."""
    configured = any(os.path.exists(os.path.join(BUILD, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "pdcu_perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def main(argv):
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    os.makedirs(WORK, exist_ok=True)
    bench = subprocess.Popen([BINARY, *argv, "--workdir", WORK], cwd=ROOT)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        bench.kill()
        bench.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
