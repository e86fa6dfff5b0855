#!/usr/bin/env python3
"""Builds the engine and the benchmark from source, then runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload er_search|ppi_clique|server_rw \\
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/, as a
Release build of perfbench/CMakeLists.txt (engine libraries, gqld, the
gqlbench program and its self-test). Every run first runs the self-test.
With --trace 1 the Chrome trace the run wrote is validated with
tools/check_trace.py. Build output goes to stderr; stdout carries the
benchmark's report and, as its last line, the JSON result.

Exits nonzero, without a result, when the engine sources are missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("er_search", "ppi_clique", "server_rw")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once per source location) and builds the targets."""
    stamp = os.path.join(build_dir, "perfbench-source.txt")
    if os.path.exists(build_dir):
        try:
            with open(stamp) as f:
                same = f.read() == HERE
        except OSError:
            same = False
        if not same:
            shutil.rmtree(build_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
        with open(stamp, "w") as f:
            f.write(HERE)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target",
                    "gqlbench", "gqld", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)


def git_commit():
    """HEAD of the repository this checkout is, or "unknown"."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: engine sources (src/CMakeLists.txt) not found next "
              "to perfbench/", file=sys.stderr)
        return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
        subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build or self-test failed: {e}", file=sys.stderr)
        return 2

    out_dir = os.path.join(build_dir, "out")
    cmd = [os.path.join(build_dir, "gqlbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--gqld", os.path.join(build_dir, "gqld"),
           "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: gqlbench timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(proc.stdout, file=sys.stderr)
        print("run.py: gqlbench printed no result", file=sys.stderr)
        return 3
    for line in lines[:-1]:
        print(line)

    ok = proc.returncode == 0
    if args.trace:
        trace = os.path.join(out_dir,
                             f"trace-{args.workload}-{args.seed}.json")
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "check_trace.py"),
             trace], capture_output=True, text=True)
        print(check.stdout.strip())
        if check.returncode != 0:
            result["correct"] = False
            ok = False
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
