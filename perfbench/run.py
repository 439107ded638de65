#!/usr/bin/env python3
"""Build and run the wagg end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload churn-global --seed 1 --seconds 10 --trace 0

The library is built from the checkout's own sources (Release) into
.bench_build/perfbench; build output goes to .bench_build/perfbench-build.log
and, on failure, to standard error. The benchmark binary's standard output is
passed through unchanged, so its last line is the JSON result. The exit code
is the binary's: nonzero on any build failure or correctness failure.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("churn-global", "churn-noisy", "serve-small")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir.parent / "perfbench-build.log"
    steps = [
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "wagg_perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, cwd=root, stdout=log,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                raise SystemExit(f"run.py: build step failed: {' '.join(step)}")
    return build_dir / "wagg_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    out_dir = root / ".bench_build"
    binary = build(root, out_dir / "perfbench")
    spans_dir = out_dir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(spans_dir)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
