#!/usr/bin/env python3
"""Build the psopt benchmark harness and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload scale_explore --seed 1 \
        --seconds 30 --trace 0

The harness is configured as a Release build into $CARGO_TARGET_DIR (if
set) or .bench_build/, and rebuilt incrementally on every call; build
output goes to stderr. The last line of stdout is the JSON result. With
--trace 1 a Chrome trace is written under <build dir>/traces/.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scale_explore", "scale_parallel", "verify_promises")
DEFAULT_SEED = 1


def git(*args):
    """Runs git in the repository; None when it is not a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run(cmd, **kwargs):
    """Runs cmd to completion, killing it if this script is interrupted."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code = run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if code != 0:
            return code
    return run(["cmake", "--build", build_dir, "-j", jobs],
               stdout=sys.stderr)


def main():
    # Turn SIGTERM into SystemExit so run() still stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: psopt sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    code = build(build_dir)
    if code != 0:
        print("error: building the harness failed", file=sys.stderr)
        return 2

    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    cmd = [os.path.join(build_dir, "psopt_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus", os.path.join(ROOT, "tests", "corpus"),
           "--revision", revision or "unknown",
           "--dirty", "unknown" if status is None else str(int(bool(status)))]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return run(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
