#!/usr/bin/env python3
"""Builds and runs the ClockMark end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary is compiled from
source on first use into $CARGO_TARGET_DIR (default .bench_build) under
the repository root; later runs only re-check the build. Its output is passed through,
so the last stdout line is the benchmark's JSON result. The exit status
is the binary's: nonzero on any wrong verdict, and on any build or usage
error (then without a result line).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scenario_triggered", "file_stream", "blind_service")
# A run must end well inside 180 s.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no ClockMark sources under {ROOT}/src; run from a full checkout")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        # Concurrent first runs must not configure the same tree twice.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir])
        steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                      "-j", BUILD_JOBS])
        with open(os.path.join(build_dir, "build.log"), "a") as out:
            for step in steps:
                if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    log(f"build failed; see {build_dir}/build.log")
                    return None
    return os.path.join(build_dir, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    binary = build(os.path.join(build_root, "e2ebench"))
    if binary is None:
        return 2

    workdir = os.path.join(build_root, "e2ebench", "work")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--workdir={workdir}"]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopped")
        proc.kill()
        proc.wait()
        return 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
