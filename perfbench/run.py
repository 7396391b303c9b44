#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and the rtdvs libraries from src/) with CMake on first
use, launches the benchmark binary a few times with --setup-only to take the
median set-up time, then runs the workload. Everything the binary prints is
passed through; its last line, a JSON object with the keys correct,
attempted, failed and metrics, stays the last line of this script's output
(with setup_s replaced by the median over all launches when --trace 0).

The build goes to $CARGO_TARGET_DIR/perfbench when that variable is set
(relative paths are taken from the repository root), else to
.bench_build/perfbench. Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper_sweep", "mp_global", "aperiodic_server")
# Set-up launches per run (the main run adds one more sample).
SETUP_LAUNCHES = 8
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_build_step(command):
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    sys.stderr.write(result.stdout.decode(errors="replace"))
    if result.returncode != 0:
        fail(f"build step failed: {' '.join(command)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no rtdvs sources under {ROOT}/src; run from a repository checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    binary = os.path.join(out, "rtdvs_perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def launch(command):
    """Runs the binary, returning (returncode, stdout lines)."""
    start_ns = time.monotonic_ns()
    result = subprocess.run(command + ["--launch-ns", str(start_ns)], cwd=ROOT,
                            stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    return result.returncode, result.stdout.decode(errors="replace").splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    common = [binary, "--workload", args.workload, "--seed", str(args.seed),
              "--expected-dir", os.path.join(BENCH_DIR, "expected")]

    setup_samples = []
    if args.trace == 0:
        for _ in range(SETUP_LAUNCHES):
            code, lines = launch(common + ["--setup-only"])
            if code != 0 or not lines or not lines[-1].startswith("setup_s "):
                fail(f"set-up launch failed (exit {code})")
            setup_samples.append(float(lines[-1].split()[1]))

    command = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        command += ["--spans-out",
                    os.path.join(build_dir(), f"spans_{args.workload}.jsonl")]
    code, lines = launch(command)
    if not lines:
        fail(f"benchmark printed nothing (exit {code})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark printed no result (exit {code})")
    if args.trace == 0:
        setup_samples.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_samples)
    for line in lines[:-1]:
        if line.startswith("metric setup_s "):
            line = f"metric setup_s {statistics.median(setup_samples):.9g} s"
        print(line)
    if setup_samples:
        print("setup_s samples " + " ".join(f"{s:.6f}" for s in setup_samples))
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
