#!/usr/bin/env python3
"""Runs one workload of the RICD benchmark and prints its result.

    python3 perfbench/run.py --workload offline_batch|stream_insert|stream_window
                             [--seed 42] [--seconds 20] [--trace 0|1]

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library sources from src/ plus the benchmark program in this
directory, Release) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls rebuild only what changed. The workload then runs in a fresh process
with the engine's worker count pinned for that workload. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Build output goes to standard error. Traced runs write their spans
to <build dir>/runs/spans-<workload>-<seed>.json.

Exits non-zero without a result line when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def engine_workers(workload):
    # offline_batch uses up to four workers; the stream workloads keep the
    # engine at two so that, on a four-core host, the three generator threads
    # do not contend with it.
    if workload == "offline_batch":
        return min(4, len(os.sched_getaffinity(0)))
    return 2


def build(build_dir):
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "--target", "ricd_perfbench",
                   "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["offline_batch", "stream_insert",
                                 "stream_window"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or
        os.path.join(os.path.dirname(HERE), ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    # The program reads its knobs from RICD_* variables; run it with none set
    # except the pinned worker count.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RICD_")}
    env["RICD_WORKERS"] = str(engine_workers(args.workload))
    cmd = [os.path.join(build_dir, "ricd_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("perfbench: run exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
