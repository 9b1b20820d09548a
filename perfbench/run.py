#!/usr/bin/env python3
"""Builds and runs the benchmark.

    python3 perfbench/run.py --workload serial_history --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
program out of tree (perfbench/CMakeLists.txt pulls in src/) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. A traced run also writes its Chrome
trace to perfbench/out/trace_<workload>.json.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = "4"


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out_dir):
    """Configures (once) and builds; returns the binary path or None."""
    configure = ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", out_dir, "-j", BUILD_JOBS])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out_dir, "perfbench")


def main(argv):
    binary = build(build_dir())
    if binary is None:
        return 1
    args = list(argv)
    if "--trace" in args and "--trace-out" not in args:
        i = args.index("--trace")
        workload = args[args.index("--workload") + 1] \
            if "--workload" in args else "unknown"
        if i + 1 < len(args) and args[i + 1] == "1":
            out = os.path.join(HERE, "out")
            os.makedirs(out, exist_ok=True)
            args += ["--trace-out",
                     os.path.join(out, "trace_%s.json" % workload)]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
