#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload subjects|live-heap|compile \\
        --seed N --seconds S --trace 0|1 [--mode gofree|go]

The harness is configured and built (Release, no sanitizer) into
.bench_build/ on first use; later runs only re-check it. Build output goes
to stderr. The harness prints a host line first and, as the last line of
stdout, one JSON object with the run's correctness, operation counts and
metrics. A traced run also writes its spans to .bench_build/spans/.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step; its output is shown on stderr only if it fails."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    except OSError as err:
        fail("cannot run %s: %s" % (cmd[0], err))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/ next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR] + generator +
                  ["-DCMAKE_BUILD_TYPE=Release"], CONFIGURE_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "-j", jobs], BUILD_TIMEOUT_S)


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, timeout=30)
            if out.returncode == 0:
                return out.stdout.decode().strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["subjects", "live-heap", "compile"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--mode", default="gofree", choices=["gofree", "go"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--mode", args.mode, "--rev", revision()]
    if args.trace == "1":
        spans = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(spans, args.workload + ".jsonl")]
    sys.stdout.flush()
    # Own session, so a timeout stops the harness and any child it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("harness timed out after %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("harness exited with status %d" % code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
