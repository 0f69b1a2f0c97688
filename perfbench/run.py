#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program is compiled from ./src together
with the driver in ./perfbench into $CARGO_TARGET_DIR (default .bench_build)
with CMake; the first run builds, later runs reuse the build. The last line
of standard output is the result object; build output goes to stderr. A
failed build, a failed correctness check or a malformed result exits
non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("kv_client_tcp", "kv_small_tcp", "kv_large_tcp", "sim_crash_n32")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "core", "engine.hpp")):
        fail("program sources (src/) not found; run from the repository root")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    configure = [cmake, "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, [cmake, "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=root)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(build_dir, "perfbench")
    if not os.access(exe, os.X_OK):
        fail("build produced no perfbench binary")
    return exe


def check_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        fail("result line is not JSON")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    if res["correct"] is not True or res["attempted"] < 1:
        fail("run was not correct")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            fail(f"malformed metric {name}")
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(root, build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              cwd=root, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"run exited with code {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        fail("run printed no result")
    check_result(lines[-1])
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
