#!/usr/bin/env python3
"""Builds the geovalid benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
.bench_build/perfbench (about a minute on 4 cores); later runs only check
that the build is current. Build output goes to stderr, so the last line
of stdout is the benchmark's result. `--out FILE` also appends the run's
two JSON lines (report, result) to FILE for compare.py; `--self-test`
runs the benchmark's own tests instead. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "geovalid_perfbench")
TESTS = os.path.join(BUILD, "perfbench_tests")
SOURCES = os.path.join(ROOT, "src")
RUN_TIMEOUT_S = 170  # the run itself; a first build may take longer


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(SOURCES, "serve", "server.h")):
        fail(f"geovalid sources not found under {SOURCES}", 2)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step), 3)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest():
    """SHA-256 over src/ (paths and contents): identifies the code under
    test where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SOURCES):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def self_test():
    build(["geovalid_perfbench", "perfbench_tests"])
    if not os.path.isfile(TESTS):
        fail("perfbench_tests was not built (GTest not found)", 3)
    code = subprocess.run([TESTS]).returncode
    code |= subprocess.run(
        [sys.executable, "-m", "unittest", "-v", "test_compare"],
        cwd=HERE).returncode
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", help="append the report and result lines here")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")

    build(["geovalid_perfbench"])
    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 4)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if args.out and run.stdout:
        with open(args.out, "a") as f:
            f.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
