#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

Builds the benchmark driver from source (CMake, into $CARGO_TARGET_DIR or
.bench_build under the current directory), runs the named workload and
relays its result: the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is
non-zero when the build fails, the run fails, or a correctness check
fails.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test      # build and run the unit tests

Run it from the repository root. See perfbench/README.md for the
workloads and metrics.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_sleepy", "fleet_wur_listen", "ingest_replay")


def build(build_dir, target):
    """Configure (once) and build `target`; build output goes to stderr.

    Compiler temporaries go to a directory inside the build tree, so the
    build writes nothing outside it."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, target)


def build_id(path):
    """A hash of the built driver: the determinism memory is kept per build,
    so a rebuild from changed sources never compares with digests an older
    build recorded."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        if args.self_test:
            # Run inside the build tree: the tests write scratch files.
            return subprocess.run([build(build_dir, "perfbench_tests")], cwd=build_dir).returncode
        driver = build(build_dir, "perfbench_driver")
        driver_id = build_id(driver)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    state_dir = os.path.join(build_dir, "perfbench-state")
    os.makedirs(state_dir, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state_dir, "--build-id", driver_id]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    # The driver prints a result (and exits 1) when a check fails, and
    # prints nothing when it could not run at all.
    if lines:
        print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
