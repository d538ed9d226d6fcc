"""The repository benchmark: one seeded workload, measured end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload inband_asks --seed 1 --seconds 15 --trace 0

Each workload runs in fresh interpreters (``perfbench/workloads.py``)
with ``PYTHONHASHSEED`` derived from ``--seed`` and every ``RVAAS_*``
knob cleared, so the library is measured as shipped.  Set-up is timed
in several fresh interpreters and reported as their median.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics of a traced run, whose steps after the count window
alternate traced and untraced; the tracing overhead is the difference
of the two halves' ``op_ms.p50``.  Earlier stdout lines are a human-readable report (host
fingerprint, drift probe, effective knobs, every metric under the
workload's own name); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
of the run is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("inband_asks", "gated_churn", "federation_queries")

#: end-to-end metrics: (name, unit); every workload reports all of them.
#: The "op" is the workload's own operation: an in-band ask, a FlowMod
#: (send to gate decision) or a federated query.  The bounded latency,
#: ``op_ms.best``, is the mean over request classes of each class's
#: fastest repetitions (see ``workloads.BEST_PCT``): a shared 2-vCPU
#: host runs the same work up to ~1.8x slower for seconds to minutes,
#: which moves the mean, the percentiles and the throughput of a run
#: with the slow share of its time; it moved ``op_ms.best`` least
#: (``perfbench/README.md`` has the figures).
END_TO_END = (
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("op_ms.best", "ms"),
)

#: printed in the report, not bounded
REPORT_ONLY = (
    ("op_ms.p10", "ms"),
    ("op_ms.mean", "ms"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("op_ms.p99", "ms"),
    ("query_ms.p50", "ms"),
    ("query_ms.p90", "ms"),
)

#: the workload's own names for the generic ones, printed beside them;
#: ``query_ms.*`` is the ask made in each churn step
ALIASES = {
    "inband_asks": {
        "op_ms.best": "ask_ms.best",
        "op_ms.p10": "ask_ms.p10",
        "op_ms.mean": "ask_ms.mean",
        "op_ms.p50": "ask_ms.p50",
        "op_ms.p90": "ask_ms.p90",
        "op_ms.p99": "ask_ms.p99",
        "ops_per_s": "asks_per_s",
    },
    "gated_churn": {
        "op_ms.best": "flowmod_ms.best",
        "op_ms.p10": "flowmod_ms.p10",
        "op_ms.mean": "flowmod_ms.mean",
        "op_ms.p50": "flowmod_ms.p50",
        "op_ms.p90": "flowmod_ms.p90",
        "op_ms.p99": "flowmod_ms.p99",
        "ops_per_s": "flowmods_per_s",
        "query_ms.p50": "ask_ms.p50",
        "query_ms.p90": "ask_ms.p90",
    },
    "federation_queries": {
        "op_ms.best": "fed_query_ms.best",
        "op_ms.p10": "fed_query_ms.p10",
        "op_ms.mean": "fed_query_ms.mean",
        "op_ms.p50": "fed_query_ms.p50",
        "op_ms.p90": "fed_query_ms.p90",
        "op_ms.p99": "fed_query_ms.p99",
        "ops_per_s": "fed_queries_per_s",
    },
}

#: set-up is timed in this many fresh interpreters (the measuring one
#: included) and reported as the median
SETUP_SAMPLES = 7
#: the whole invocation must end well inside the 180 s a run may take
BUDGET_SECONDS = 170.0
#: iterations of the drift probe's fixed pure-Python loop
PROBE_ITERATIONS = 2_000_000


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def drift_probe() -> float:
    """Seconds a fixed pure-Python loop takes (recorded, never used to scale)."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> Dict[str, object]:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_rev": git_revision(),
    }


def child_env(seed: int) -> Dict[str, str]:
    """The library's shipped defaults, a seed-derived hash seed, ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RVAAS_")}
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, mode: str, deadline: float, spans: Optional[Path] = None) -> dict:
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before a workload child could start")
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(args.seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} child exceeded the time budget") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"{mode} child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{mode} child printed no result")
    return json.loads(lines[-1])


def end_to_end(measured: dict, setup_samples: List[float]) -> Dict[str, float]:
    summary = measured["summary"]
    values = {name: summary[name] for name, _ in END_TO_END if name in summary}
    values["setup_s"] = statistics.median(setup_samples)
    values["rss_peak_mb"] = measured["rss_peak_mb"]
    return values


def report(args, record: dict) -> None:
    """The human-readable lines that precede the JSON result."""
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    host = record["host"]
    print(
        f"host: {host['cores']} cores ({host['cores_usable']} usable), "
        f"{host['implementation']} {host['python']}, {host['platform']}, rev {host['git_rev']}"
    )
    probe = record["drift_probe_s"]
    print(f"drift probe: {probe['before']:.3f} s before, {probe['after']:.3f} s after (not used to scale)")
    knobs = record["knobs"]
    print(
        f"library defaults: backend={knobs['backend']} pool_mode={knobs['pool_mode']} "
        f"pool_workers={knobs['pool_workers']} RVAAS_* set={knobs['rvaas_env'] or 'none'}"
    )
    measured = record["measured"]
    summary = measured["summary"]
    aliases = ALIASES[args.workload]
    print(
        f"samples: {summary['samples']}  request classes: {summary['request_classes']}  "
        f"steps: {measured['steps']}"
    )
    print(f"checks: {measured['checks'] or 'per-operation only'}")
    print(
        f"stationarity: op_ms.p50 {summary['op_ms.p50.first_half']:.3f} ms (first half) "
        f"vs {summary['op_ms.p50.second_half']:.3f} ms (second half)"
    )
    print(f"setup_s samples: {[round(s, 4) for s in record['setup_samples']]}")
    if args.trace:
        print("end-to-end of the traced run (half its steps traced; compare --trace 0 runs only):")
    else:
        print("end-to-end:")
    for name, unit in END_TO_END:
        label = aliases.get(name, name)
        print(f"  {name:<14} {label:<20} {record['end_to_end'][name]:12.4f} {unit}")
    for name, unit in REPORT_ONLY:
        if name in aliases:
            print(f"  {name:<14} {aliases[name]:<20} {summary[name]:12.4f} {unit}  (report only)")
    if args.trace:
        off_thread = measured["layers"]["trace.off_thread_calls"]
        if off_thread:
            print(
                f"WARNING: {off_thread:.0f} wrapped calls ran off the loop's thread; "
                "their time is missing from the per-layer self times"
            )
        print(f"per-layer ({measured['traced_steps']} traced steps):")
    for name, unit in LAYER_METRICS:
        if name in measured.get("layers", {}):
            print(f"  {name:<34} {measured['layers'][name]:14.4f} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_SECONDS
    record: dict = {"host": fingerprint(), "args": vars(args)}
    try:
        before = drift_probe()
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            measured = run_child(args, "trace", deadline, spans=spans)
            samples = [measured["setup_s"]]
        else:
            # Set-up samples are taken before and after the measuring
            # interpreter, so they span the run rather than a few seconds
            # of it: the host's speed phases last that long.
            extra = SETUP_SAMPLES - 1
            samples = [
                run_child(args, "setup", deadline)["setup_s"] for _ in range(extra // 2)
            ]
            measured = run_child(args, "measure", deadline)
            samples.append(measured["setup_s"])
            samples += [
                run_child(args, "setup", deadline)["setup_s"]
                for _ in range(extra - extra // 2)
            ]
        record.update(
            measured=measured,
            knobs=measured["knobs"],
            setup_samples=samples,
            end_to_end=end_to_end(measured, samples),
        )
        values, names = (
            (measured["layers"], LAYER_METRICS) if args.trace
            else (record["end_to_end"], END_TO_END)
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
        after = drift_probe()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["drift_probe_s"] = {"before": before, "after": after}
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    record["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    report(args, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
