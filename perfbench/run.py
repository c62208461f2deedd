#!/usr/bin/env python3
"""Build and run the host-performance benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The driver is configured and built with
CMake (Ninja when available) in $CARGO_TARGET_DIR, or .bench_build when
that is unset; later runs rebuild only what changed. Build output goes
to stderr, so the last line of stdout is the driver's JSON result.
A traced run (--trace 1) also writes its spans as a Chrome trace to
<build dir>/spans/<workload>-seed<N>.json.

Exit status: the driver's (0 ok, 1 wrong output or model drift,
2 usage), or 3 when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = "alphapim_perfbench"


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "--target", TARGET,
                        "-j", jobs], stdout=sys.stderr) != 0:
        return None
    return os.path.join(build_dir, TARGET)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    driver = build(build_dir)
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
