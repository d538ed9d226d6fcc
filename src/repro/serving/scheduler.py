"""The multi-tenant query scheduler: admission → coalesce → batch → reply.

RVaaS is a *service*: many mutually distrusting clients query one
verification provider.  The controller's synchronous path walks one
request at a time through unseal → snapshot → verify → seal, which
bottlenecks the warm-query wins of the atom matrix on a serial
frontend.  :class:`QueryScheduler` is the serving tier in front of the
:class:`~repro.core.engine.VerificationEngine`:

* **Admission control** — a bounded queue with shed-oldest overflow and
  per-client token-bucket rate limiting.  Refused and shed requests get
  an explicit ``OVERLOADED`` reply carrying the current
  :class:`~repro.core.protocol.FreshnessReport`, never a silent drop:
  under overload the service degrades honestly, exactly as it does
  under lossy control channels.
* **Coalescing** — all queued requests with an identical
  ``(client, query, snapshot content-hash)`` key share one engine call;
  the single answer fans back out through per-request response
  construction (and, in the in-band path, per-client sealing).  A
  bounded answer cache extends coalescing across batch boundaries on an
  unchanged snapshot.
* **Batch execution** — the unique keys of a batch are sorted and
  answered in that order, one engine call per key.
* **Stale-but-honest fast path** — when a snapshot is mid-churn (its
  artifacts are not compiled yet) and the queue is under pressure, the
  batch is served from the last *verified* snapshot while the new one
  warms in the background; the reply's freshness report discloses the
  age, so the client sees "isolated, as of 0.8s ago" instead of a
  latency spike.

The scheduler is deliberately transport-agnostic: the controller feeds
it unsealed in-band requests and seals its outcomes, while benchmarks
and the workload driver feed it directly with callbacks.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.protocol import (
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_RATE_LIMITED,
    FreshnessReport,
)
from repro.core.queries import Answer, Query
from repro.core.snapshot import NetworkSnapshot
from repro.serving.clock import MonotonicClock
from repro.serving.metrics import SchedulerMetrics


@dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs for one :class:`QueryScheduler`."""

    #: in-flight bound; a submit beyond it sheds the *oldest* queued
    #: request (freshest-first under overload: a client that waited
    #: longest is the one whose answer is most likely already stale)
    max_queue: int = 4096
    #: requests drained per pump; also the coalescing window size
    batch_size: int = 256
    #: virtual seconds between a submit and the drain that serves it
    #: (in-band mode only; direct mode pumps explicitly)
    drain_interval: float = 0.005
    #: sustained per-client admission rate (requests / second);
    #: ``None`` disables rate limiting
    rate_per_client: Optional[float] = None
    #: token-bucket burst capacity; defaults to one second of rate
    rate_burst: Optional[float] = None
    #: share one answer among identical (client, query, snapshot) keys
    coalesce: bool = True
    #: cross-batch answer reuse (entries; 0 disables the cache)
    answer_cache_entries: int = 8192
    #: serve from the last verified snapshot while a churned one compiles
    stale_serve: bool = True
    #: never serve evidence older than this from the stale fast path
    max_stale_age: float = 30.0
    #: query classes that must never share answers (history-dependent
    #: queries whose result is not a function of the snapshot hash)
    never_coalesce: Tuple[str, ...] = ("ExposureHistoryQuery",)


class TokenBucket:
    """Per-client admission throttle: ``rate`` tokens/s, ``burst`` cap."""

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last_refill = now

    def try_take(self, now: float) -> bool:
        elapsed = max(0.0, now - self.last_refill)
        self.last_refill = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class PendingQuery:
    """One admitted request waiting in the scheduler's queue."""

    client: str
    query: Query
    nonce: int
    submitted_at: float
    on_done: Callable[["PendingQuery", "ServeOutcome"], None]
    #: opaque caller state (the controller stashes the unsealed request
    #: and packet origin here; the workload driver stashes arrival time)
    context: Any = None


@dataclass(frozen=True)
class ServeOutcome:
    """What the scheduler hands back for one request.

    ``status`` is one of the :mod:`repro.core.protocol` status strings;
    ``answer`` is ``None`` exactly when the request was refused
    (overload / rate limit).  ``snapshot`` is the snapshot the answer
    was computed on — the *stale* one on the fast path, which is why the
    freshness report travels with it.
    """

    status: str
    answer: Optional[Answer]
    snapshot: Optional[NetworkSnapshot]
    freshness: Optional[FreshnessReport]
    stale: bool = False
    coalesced: bool = False


class QueryScheduler:
    """Async admission, coalescing, and batch execution."""

    def __init__(
        self,
        *,
        answer_fn: Callable[[str, Query, NetworkSnapshot], Answer],
        snapshot_fn: Callable[[], NetworkSnapshot],
        freshness_fn: Optional[
            Callable[[NetworkSnapshot], FreshnessReport]
        ] = None,
        clock: Optional[Callable[[], float]] = None,
        config: Optional[ServingConfig] = None,
        ready_fn: Optional[Callable[[NetworkSnapshot], bool]] = None,
        warm_fn: Optional[Callable[[NetworkSnapshot], None]] = None,
        schedule_fn: Optional[Callable[[float, Callable[[], None]], Any]] = None,
    ) -> None:
        self.config = config or ServingConfig()
        self._answer_fn = answer_fn
        self._snapshot_fn = snapshot_fn
        self._freshness_fn = freshness_fn
        #: monotonic view of the injected clock: freshness ages, bucket
        #: refills and latency accounting can never run backwards even
        #: if the underlying time source does (ISSUE 7 satellite)
        self.clock = MonotonicClock(clock if clock is not None else _zero_clock)
        self._ready_fn = ready_fn
        self._warm_fn = warm_fn
        self._schedule_fn = schedule_fn
        self.metrics = SchedulerMetrics()
        self._queue: Deque[PendingQuery] = deque()
        self._buckets: Dict[str, TokenBucket] = {}
        self._answer_cache: "OrderedDict[tuple, Answer]" = OrderedDict()
        self._drain_scheduled = False
        #: last snapshot this scheduler served from (the stale-path source)
        self._last_snapshot: Optional[NetworkSnapshot] = None
        self._last_content: Optional[str] = None
        #: content hash currently warming in the background, if any
        self._warming: Optional[str] = None
        self._pending_warm: Optional[NetworkSnapshot] = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    @property
    def backlog(self) -> int:
        return len(self._queue)

    def submit(
        self,
        client: str,
        query: Query,
        *,
        nonce: int = 0,
        on_done: Callable[[PendingQuery, ServeOutcome], None],
        context: Any = None,
    ) -> Optional[PendingQuery]:
        """Admit one request; refusals are answered immediately.

        Returns the queued :class:`PendingQuery`, or ``None`` when the
        request was refused (its ``on_done`` has already been called
        with an ``OVERLOADED`` outcome).
        """
        now = self.clock.now()
        pending = PendingQuery(
            client=client,
            query=query,
            nonce=nonce,
            submitted_at=now,
            on_done=on_done,
            context=context,
        )
        if not self._admit_rate(client, now):
            self.metrics.rate_limited += 1
            self._refuse(pending, STATUS_RATE_LIMITED)
            return None
        if len(self._queue) >= self.config.max_queue:
            shed = self._queue.popleft()
            self.metrics.shed += 1
            self._refuse(shed, STATUS_OVERLOADED)
        self._queue.append(pending)
        self.metrics.admitted += 1
        if len(self._queue) > self.metrics.queue_peak:
            self.metrics.queue_peak = len(self._queue)
        self._schedule_drain()
        return pending

    def _admit_rate(self, client: str, now: float) -> bool:
        rate = self.config.rate_per_client
        if rate is None:
            return True
        bucket = self._buckets.get(client)
        if bucket is None:
            burst = self.config.rate_burst
            if burst is None:
                burst = max(1.0, rate)
            bucket = TokenBucket(rate, burst, now)
            self._buckets[client] = bucket
        return bucket.try_take(now)

    def _refuse(self, pending: PendingQuery, status: str) -> None:
        """An explicit refusal, carrying whatever freshness we have."""
        snapshot = self._last_snapshot
        freshness = None
        if snapshot is not None and self._freshness_fn is not None:
            freshness = self._freshness_fn(snapshot)
        self.metrics.overload_responses += 1
        pending.on_done(
            pending,
            ServeOutcome(
                status=status,
                answer=None,
                snapshot=snapshot,
                freshness=freshness,
            ),
        )

    def _schedule_drain(self) -> None:
        if self._schedule_fn is None or self._drain_scheduled:
            return
        self._drain_scheduled = True
        self._schedule_fn(self.config.drain_interval, self._drain)

    def _drain(self) -> None:
        self._drain_scheduled = False
        self.pump()
        if self._queue:
            self._schedule_drain()

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def pump(self) -> int:
        """Serve one batch; returns the number of requests answered."""
        if not self._queue:
            self.idle_work()
            return 0
        batch: List[PendingQuery] = []
        while self._queue and len(batch) < self.config.batch_size:
            batch.append(self._queue.popleft())
        self.metrics.record_batch(len(batch))
        pressure = bool(self._queue) or len(batch) >= self.config.batch_size
        current = self._snapshot_fn()
        snapshot, content, stale = self._serving_snapshot(current, pressure)

        # Group the batch under its coalesce keys, in arrival order.
        groups: "OrderedDict[tuple, List[PendingQuery]]" = OrderedDict()
        singles: List[PendingQuery] = []
        for pending in batch:
            if self._coalescible(pending.query):
                key = (pending.client, _canonical(pending.query), content)
                groups.setdefault(key, []).append(pending)
            else:
                singles.append(pending)

        answers: Dict[tuple, Answer] = {}
        jobs: List[tuple] = []
        for key in groups:
            cached = self._cache_get(key)
            if cached is not None:
                self.metrics.answer_cache_hits += 1
                answers[key] = cached
            else:
                jobs.append(key)
        # Sorted keys fix the engine's call order whatever the arrival
        # order, so the caches a batch leaves behind are reproducible.
        jobs.sort(key=_job_sort_key)
        for key in jobs:
            client, query, _content = key
            answer = self._answer_fn(client, query, snapshot)
            answers[key] = answer
            self._cache_put(key, answer)
        self.metrics.engine_calls += len(jobs)

        freshness = (
            self._freshness_fn(snapshot)
            if self._freshness_fn is not None
            else None
        )
        served = 0
        for key, members in groups.items():
            answer = answers[key]
            if len(members) > 1:
                self.metrics.coalesced += len(members) - 1
            for index, pending in enumerate(members):
                self._deliver(
                    pending,
                    ServeOutcome(
                        status=STATUS_OK,
                        answer=answer,
                        snapshot=snapshot,
                        freshness=freshness,
                        stale=stale,
                        coalesced=index > 0,
                    ),
                )
                served += 1
        for pending in singles:
            answer = self._answer_fn(pending.client, pending.query, snapshot)
            self.metrics.engine_calls += 1
            self._deliver(
                pending,
                ServeOutcome(
                    status=STATUS_OK,
                    answer=answer,
                    snapshot=snapshot,
                    freshness=freshness,
                    stale=stale,
                ),
            )
            served += 1
        if stale:
            self.metrics.stale_served += served
        if not self._queue:
            self.idle_work()
        return served

    def flush(self) -> int:
        """Pump until the queue is empty; returns total served."""
        total = 0
        while self._queue:
            total += self.pump()
        return total

    def idle_work(self) -> None:
        """Run deferred maintenance (direct mode's background warm)."""
        if self._pending_warm is not None and self._schedule_fn is None:
            self._run_warm()

    def _deliver(self, pending: PendingQuery, outcome: ServeOutcome) -> None:
        self.metrics.served += 1
        pending.on_done(pending, outcome)

    def _coalescible(self, query: Query) -> bool:
        if not self.config.coalesce:
            return False
        return type(query).__name__ not in self.config.never_coalesce

    # ------------------------------------------------------------------
    # Stale-but-honest fast path
    # ------------------------------------------------------------------

    def _serving_snapshot(
        self, current: NetworkSnapshot, pressure: bool
    ) -> Tuple[NetworkSnapshot, str, bool]:
        """Pick the snapshot this batch is served from.

        The fast path engages only when all of: the configuration
        changed since the last served batch, the new snapshot's
        artifacts are not compiled yet (``ready_fn``), the queue is
        under pressure, and the last verified evidence is younger than
        ``max_stale_age``.  Everything else serves fresh (paying the
        compile) and records the snapshot as the new stale-path source.
        """
        content = current.content_hash()
        cfg = self.config
        if (
            cfg.stale_serve
            and pressure
            and self._ready_fn is not None
            and self._last_snapshot is not None
            and self._last_content is not None
            and content != self._last_content
            and not self._ready_fn(current)
        ):
            age = self.clock.now() - self._last_snapshot.taken_at
            if 0.0 <= age <= cfg.max_stale_age:
                self._request_warm(current, content)
                return self._last_snapshot, self._last_content, True
        self._last_snapshot = current
        self._last_content = content
        return current, content, False

    def _request_warm(self, snapshot: NetworkSnapshot, content: str) -> None:
        if self._warm_fn is None or self._warming == content:
            return
        self._warming = content
        self._pending_warm = snapshot
        if self._schedule_fn is not None:
            self._schedule_fn(0.0, self._run_warm)

    def _run_warm(self) -> None:
        snapshot = self._pending_warm
        self._pending_warm = None
        if snapshot is None or self._warm_fn is None:
            self._warming = None
            return
        try:
            self._warm_fn(snapshot)
            self.metrics.warm_compiles += 1
        finally:
            self._warming = None

    # ------------------------------------------------------------------
    # Answer cache (cross-batch coalescing)
    # ------------------------------------------------------------------

    def _cache_get(self, key: tuple) -> Optional[Answer]:
        if self.config.answer_cache_entries <= 0:
            return None
        cached = self._answer_cache.get(key)
        if cached is not None:
            self._answer_cache.move_to_end(key)
        return cached

    def _cache_put(self, key: tuple, answer: Answer) -> None:
        limit = self.config.answer_cache_entries
        if limit <= 0:
            return
        self._answer_cache[key] = answer
        while len(self._answer_cache) > limit:
            self._answer_cache.popitem(last=False)


def _canonical(query: Query) -> Query:
    """The query as the *engine* sees it.

    Authentication is per-request liveness evidence grafted on after
    verification (never by the engine), so two requests differing only
    in ``authenticate`` have byte-identical logical answers and may
    share one engine call.
    """
    if getattr(query, "authenticate", False):
        return dataclasses.replace(query, authenticate=False)
    return query


def _job_sort_key(key: tuple) -> tuple:
    client, query, _content = key
    return (client, type(query).__name__, repr(query))


def _zero_clock() -> float:
    return 0.0
