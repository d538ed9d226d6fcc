"""Serving-tier telemetry: admission, coalescing, and batch shape.

:class:`SchedulerMetrics` follows the :class:`~repro.core.engine.EngineMetrics`
conventions — plain integer counters, a ``snapshot_counters()`` deep
copy for before/after accounting in benchmarks, and dict-valued
breakdowns keyed by small strings.  The batch-size histogram uses
power-of-two buckets ("1", "2", "3-4", "5-8", ...) so a glance at
``python -m repro stats`` shows whether the scheduler actually batches
or drains one request at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Sequence


def counters_dict(metrics: object) -> Dict[str, object]:
    """Deep-copy a counters dataclass into a plain dict.

    Shared by :class:`SchedulerMetrics` and
    :class:`~repro.core.gate.GateMetrics`: integer fields are copied by
    value, dict-valued breakdowns are shallow-copied so a "before"
    snapshot is never mutated by later counting.
    """
    counters: Dict[str, object] = {}
    for f in fields(metrics):
        value = getattr(metrics, f.name)
        counters[f.name] = dict(value) if isinstance(value, dict) else value
    return counters


def batch_bucket(size: int) -> str:
    """The histogram bucket label for a batch of ``size`` requests."""
    if size <= 1:
        return "1"
    if size == 2:
        return "2"
    low = 3
    high = 4
    while size > high:
        low = high + 1
        high *= 2
    return f"{low}-{high}"


@dataclass
class SchedulerMetrics:
    """Counters for one :class:`~repro.serving.scheduler.QueryScheduler`."""

    admitted: int = 0  # requests accepted into the queue
    served: int = 0  # requests answered (any status="ok" reply)
    coalesced: int = 0  # requests that shared another request's answer
    shed: int = 0  # oldest-in-queue requests dropped for a newcomer
    rate_limited: int = 0  # requests refused by a client's token bucket
    overload_responses: int = 0  # explicit OVERLOADED replies sent
    stale_served: int = 0  # requests served from the last verified snapshot
    answer_cache_hits: int = 0  # cross-batch coalescing via the answer cache
    engine_calls: int = 0  # unique (client, query, snapshot) computations
    batches: int = 0  # pump() invocations that served at least one request
    max_batch: int = 0
    queue_peak: int = 0
    warm_compiles: int = 0  # background compiles of a mid-churn snapshot
    #: batch-size histogram, power-of-two buckets -> count
    batch_size_hist: Dict[str, int] = field(default_factory=dict)

    def record_batch(self, size: int) -> None:
        self.batches += 1
        if size > self.max_batch:
            self.max_batch = size
        bucket = batch_bucket(size)
        self.batch_size_hist[bucket] = self.batch_size_hist.get(bucket, 0) + 1

    def snapshot_counters(self) -> Dict[str, object]:
        return counters_dict(self)


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) by nearest-rank on a copy.

    Deterministic and dependency-free; good enough for latency tables.
    Returns 0.0 for an empty sample set.
    """
    if not samples:
        return 0.0
    ordered: List[float] = sorted(samples)
    if p <= 0:
        return ordered[0]
    if p >= 100:
        return ordered[-1]
    rank = max(0, min(len(ordered) - 1, int(round(p / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]
