#!/usr/bin/env python3
"""Build the serving-stack benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <prefill_long|decode_open|mixed_pressure>
                             --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds a Release tree of the library and
the perfbench binary (perfbench/CMakeLists.txt) in the directory named by
CARGO_TARGET_DIR, or .bench_build when it is unset; later calls only
re-check it. Build output goes to stderr, so the last line of stdout is
the binary's JSON result. A traced run (--trace 1) also writes its spans
as Chrome trace-event JSON to <build dir>/traces/<workload>-<seed>.json.

Exits non-zero, printing no result, when the build fails (for example
when the library sources are missing), and with the binary's own exit
code otherwise (1 on any correctness mismatch).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("prefill_long", "decode_open", "mixed_pressure")


def build(build_dir):
    """Configure (once) and build the perfbench target; True on success."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(max(1, len(os.sched_getaffinity(0))))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    if not build(build_dir):
        return 1
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
