"""Self-check: two traced runs at one seed must give identical counts.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py --seed 1 --seconds 5
    python3 perfbench/selfcheck.py --workload gated_churn --seed 1 --seconds 5

Runs the traced child of each workload twice with the same seed and
compares every per-layer count (calls, bytes, events, cache hits and
misses, gate decisions, spans).  Wall times, garbage-collector activity
and the tracing overhead are exempt; every other per-layer metric must
repeat exactly, or a claim resting on it would not be reproducible.
Exits 0 when all counts match, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time

from run import WORKLOADS, BenchmarkError, run_child
from tracing import LAYER_METRICS, NOT_COUNTS


def traced_counts(args, workload: str) -> dict:
    child_args = argparse.Namespace(
        workload=workload, seed=args.seed, seconds=args.seconds
    )
    deadline = time.monotonic() + 10 * args.seconds + 120
    layers = run_child(child_args, "trace", deadline)["layers"]
    return {
        name: layers[name]
        for name, _ in LAYER_METRICS
        if name in layers and name not in NOT_COUNTS
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            first = traced_counts(args, workload)
            second = traced_counts(args, workload)
        except BenchmarkError as exc:
            print(f"{workload}: error: {exc}")
            ok = False
            continue
        differing = sorted(k for k in first if first[k] != second.get(k))
        if differing:
            ok = False
            for name in differing:
                print(f"{workload}: {name} differs: {first[name]} vs {second.get(name)}")
        else:
            print(f"{workload}: {len(first)} counts identical across two traced runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
