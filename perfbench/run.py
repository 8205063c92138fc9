#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, Release, which compiles the slspvr
libraries from src/) into .bench_build; later runs rebuild only what
changed. Each run then executes the helper self-test and the perfbench
binary. Build output and the readable report go to stderr; the last stdout
line is the JSON result. With --trace 1 the spans are written to
.bench_build/traces/<workload>-seed<n>.json (Chrome trace-event format).
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("service-orbit", "procs-orbit")


def run_timeout_s(seconds):
    """A run's limit: its window (procs-orbit's is about 30 s of frames,
    whatever --seconds), set-up, verification and the traced replays."""
    return 120 + 2 * seconds


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
                    "perfbench_selftest"], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        return fail("--seed must be >= 0 and --seconds in [1, 600]")
    # The benchmark builds the program from its sources; without them there
    # is nothing to measure.
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"no slspvr sources under {ROOT}/src")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")

    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")], stdout=sys.stderr)
    if selftest.returncode != 0:
        return fail("helper self-test failed")

    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    # Its own process group, so a timeout also stops the forked workers.
    proc = subprocess.Popen(command, start_new_session=True)
    timeout = run_timeout_s(args.seconds)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail(f"run exceeded {timeout} s")


if __name__ == "__main__":
    sys.exit(main())
