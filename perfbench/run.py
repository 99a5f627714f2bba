#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_mix|sweep|cluster \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/, under
the repository root; scratch files go to a per-run directory beside
it and are removed afterwards. The last line of standard output is the
benchmark's JSON result. Exit status is non-zero, with no result
printed, when the build fails, and non-zero when any point fails a
correctness check. perfbench/README.md describes the workloads and
metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_mix", "sweep", "cluster")
# A run lasts about --seconds but always holds two cycles; a sweep
# cycle takes ~10 s. Past this the run is stuck and is killed.
RUN_TIMEOUT_MARGIN_S = 100


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    """Configure (once) and build the perfbench target; True on success."""
    cmake_dir = os.path.join(build_root, "cmake")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(cmake_dir, "perfbench")


def git(*args):
    # The ceiling stops git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                           text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def source_digest():
    """SHA-256 over the simulator and benchmark sources, path-sorted."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    binary = build(build_root)
    if binary is None:
        return 2

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    workdir = os.path.join(build_root, "work", f"{args.workload}-{os.getpid()}")
    spans_dir = os.path.join(build_root, "spans")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--commit", commit or "none",
           "--dirty", "unknown" if status is None else str(int(bool(status))),
           "--src-digest", source_digest()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(spans_dir, f"{args.workload}.json")]
    timeout = 2 * args.seconds + RUN_TIMEOUT_MARGIN_S
    try:
        # The child writes straight to our stdout, so its last line
        # (the JSON result) is ours.
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout:g} s and was killed")
        code = 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code < 0:
        log(f"benchmark died on signal {-code}")
        code = 4
    return code


if __name__ == "__main__":
    sys.exit(main())
