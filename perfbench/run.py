#!/usr/bin/env python3
"""Paper-shape Residual-41 benchmark: builds the repo, prepares the
seeded fixture and runs one workload.

    python3 perfbench/run.py --workload classify_nsl121 --seed 1 \
        --seconds 20 --trace 0

Run from the repo root. Everything is written under .bench_build/:
the CMake build (cmake/), the fixture of the current run (fixture/),
Chrome traces of traced runs (traces/). The fixture is prepared anew on
every run, outside the timed phases, so no run reuses a corpus or model
that another commit's code wrote. The last line of stdout is the result
JSON; the exit code is non-zero when the build fails, a step times out,
or a correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

OUT = ".bench_build"
BUILD = os.path.join(OUT, "cmake")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
# Budget for everything after the build: prepare + run must end well
# inside the 180 s a run may take.
RUN_BUDGET_S = 170.0


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def step(cmd, timeout):
    """Runs cmd with stdout sent to stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
        return 124


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("no repo sources here (CMakeLists.txt and src/ are required)")
        return False
    hook = os.path.abspath(os.path.join("perfbench", "project_hook.cmake"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if step(["cmake", "-S", ".", "-B", BUILD,
                 f"-DCMAKE_PROJECT_INCLUDE={hook}"], 600) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return step(["cmake", "--build", BUILD, "--target", "perfbench",
                 "-j", jobs], 1800) == 0


def git_describe():
    """The checkout's commit at run time ("unknown" outside a git
    checkout). Git is not allowed to look above the checkout."""
    if not os.path.exists(".git"):
        return "unknown"
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=30,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the corpus and the fixture training set "
                         "(smoke check only)")
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 2
    start = time.monotonic()

    fixture = os.path.join(OUT, "fixture")
    shutil.rmtree(fixture, ignore_errors=True)
    os.makedirs(fixture)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", fixture] + (["--tiny"] if args.tiny else [])
    if step([BINARY, "prepare"] + common, RUN_BUDGET_S) != 0:
        log("fixture preparation failed")
        return 2

    run = [BINARY, "run"] + common + ["--seconds", str(args.seconds),
                                      "--git", git_describe()]
    if args.trace:
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        size = "-tiny" if args.tiny else ""
        run += ["--trace-out", os.path.join(
            traces, f"{args.workload}-s{args.seed}{size}.json")]
    remaining = RUN_BUDGET_S - (time.monotonic() - start)
    try:
        return subprocess.run(run, timeout=max(remaining, 1.0)).returncode
    except subprocess.TimeoutExpired:
        log(f"run timed out after {remaining:.0f} s")
        return 124


if __name__ == "__main__":
    sys.exit(main())
