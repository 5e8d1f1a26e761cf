#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of the benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload train-gcn --seed 1 --seconds 10 --trace 0

The build lands in $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench)
and its output goes to stderr, so the last line of stdout is the JSON result
bench_e2e prints. A traced run also leaves its Chrome trace in trace.json in
the build directory. The exit code is bench_e2e's, or 1 if the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "e2ebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir


def main():
    try:
        build_dir = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"bench_e2e build failed: {err}", file=sys.stderr)
        return 1
    command = [os.path.join(build_dir, "bench_e2e")] + sys.argv[1:]
    if "--trace" in sys.argv[1:]:
        command += ["--trace-json", os.path.join(build_dir, "trace.json")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
