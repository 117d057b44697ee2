#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot|cold|scale|serve|all \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ together with the engine
sources under src/ (CMake, Release) into .bench_build/perfbench; later runs
rebuild only what changed. Build output goes to stderr. The benchmark's
report goes to stdout, and its last line is one JSON object with the keys
correct, attempted, failed and metrics. Span dumps and the modeled-clock
reference of the `hot` workload are written under .bench_out/.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: engine sources not found under src/", file=sys.stderr)
        return 1
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    return subprocess.run([exe] + sys.argv[1:] + ["--out", out_dir],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
