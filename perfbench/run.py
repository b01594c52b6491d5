#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository. The first run
configures and builds perfbench/ (which compiles the LRPC libraries from
src/) with CMake into .bench_build/ at the repository root; later runs
rebuild only what changed. The measuring program, lrpc_perf, then runs the
workload; its standard output (a host line, then the JSON result line) is
passed through unchanged, and its exit code is returned.

The program forks server processes. It runs in a session of its own, and
whatever is left of that session when it exits is killed and waited for.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD_DIR, "lrpc_perf")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ beside perfbench/: not a repository checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "lrpc_perf",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def reap_session(child):
    """Kills what remains of the program's session and waits for it to go."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        child.poll()  # Reaps the session leader; init reaps the rest.
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: build failed: {err}")

    sys.stdout.flush()
    child = subprocess.Popen(
        [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        cwd=ROOT, start_new_session=True)

    def stop(signum, _frame):
        reap_session(child)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: lrpc_perf timed out", file=sys.stderr)
        code = 1
    finally:
        reap_session(child)
    return code


if __name__ == "__main__":
    sys.exit(main())
