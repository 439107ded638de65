#!/usr/bin/env python3
"""Self-check of the benchmark's determinism.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py [--seed 11] [--other-seed 12]

For every workload it runs the benchmark twice with one seed and once with
another (one-second timed window each; the first round on every input always
completes). The deterministic outputs -- slots_mean, slot_drift, dirty links,
oracle calls, full replans, and the digests of the generated inputs and of
the final plans -- must be identical for the same seed, and the generated
inputs must differ for a different seed. Exits nonzero otherwise.
"""

import argparse
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("churn-global", "churn-noisy", "serve-small")


def fingerprint(root: Path, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-3000:] + out.stderr[-3000:])
        raise SystemExit(f"selfcheck: {workload} seed {seed} failed "
                         f"(exit {out.returncode})")
    for line in out.stdout.splitlines():
        if line.startswith("fingerprint "):
            return dict(item.split("=", 1) for item in line.split()[1:])
    raise SystemExit(f"selfcheck: no fingerprint line for {workload}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--other-seed", type=int, default=12)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent

    ok = True
    for workload in WORKLOADS:
        first = fingerprint(root, workload, args.seed)
        again = fingerprint(root, workload, args.seed)
        other = fingerprint(root, workload, args.other_seed)
        same = first == again
        differs = first["trace_digest"] != other["trace_digest"]
        ok = ok and same and differs
        print(f"{workload}: same seed {'identical' if same else 'DIFFERENT'}"
              f", other seed inputs {'differ' if differs else 'IDENTICAL'}")
        if not same:
            for key in first:
                if first[key] != again[key]:
                    print(f"  {key}: {first[key]} vs {again[key]}")
        print(f"  seed {args.seed}: " +
              " ".join(f"{k}={v}" for k, v in first.items()))
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
