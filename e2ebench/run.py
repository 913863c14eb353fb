#!/usr/bin/env python3
"""Builds the e2ebench binary from this checkout's sources and runs one pass.

    python3 e2ebench/run.py --workload paper-s2 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The build lives in .bench_build/e2ebench
(a Release build of ../src plus the benchmark); the traced pass writes its
span log to .bench_build/out/. The last line of standard output is the
result object; everything before it is human-readable detail and the
stamped result row. Exits non-zero, printing no result, when the sources
are missing or the build or the run fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
OUT = ROOT / ".bench_build" / "out"
# The whole invocation must end within 180 s; the binary's own passes are
# sized to finish well inside this.
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build(target="e2ebench"):
    """Configures (once) and builds `target`; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"product sources not found under {ROOT / 'src'}", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "build.log"
    with open(BUILD.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = BUILD / "CMakeCache.txt"
        # A cache configured from another checkout cannot be reused.
        if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
            shutil.rmtree(BUILD)
            BUILD.mkdir(parents=True)
        steps = []
        if not cache.is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", target,
                      "-j", str(jobs())])
        with open(log, "w") as out:
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                    tail = log.read_text().splitlines()[-30:]
                    print("\n".join(tail), file=sys.stderr)
                    die(f"build failed (log: {log})")
    return BUILD


def git_describe():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True,
                    help="run seed, or a comma-separated list the runs cycle through")
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    binary = build() / "e2ebench"
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-describe", git_describe()]
    if args.trace == "1":
        OUT.mkdir(parents=True, exist_ok=True)
        seed_tag = args.seed.replace(",", "_")
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{seed_tag}.jsonl")]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
