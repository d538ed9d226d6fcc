"""The multi-tenant serving tier (ISSUE 7).

Covers the scheduler in isolation (admission control, token buckets,
coalescing, the cross-batch answer cache, sharded execution, the
stale-but-honest fast path), the clock-safety satellite (monotonic
clamp, no negative staleness), the verifier row cache, and the tier
end-to-end behind the in-band protocol — including under a lossy
control channel.
"""

import pytest

from repro.core.protocol import (
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_RATE_LIMITED,
)
from repro.core.queries import (
    ExposureHistoryQuery,
    GeoLocationQuery,
    IsolationQuery,
    ReachableDestinationsQuery,
    TrafficScope,
)
from repro.dataplane.topologies import fat_tree_topology, linear_topology
from repro.faults import FaultPlan
from repro.serving import (
    MonotonicClock,
    QueryScheduler,
    ServingConfig,
    TokenBucket,
    VirtualClock,
)
from repro.serving.metrics import batch_bucket, percentile
from repro.testbed import build_testbed


# ----------------------------------------------------------------------
# Clocks (satellite: freshness must never be negative)
# ----------------------------------------------------------------------


class TestMonotonicClock:
    def test_passes_forward_motion_through(self):
        readings = iter([1.0, 2.0, 5.0])
        clock = MonotonicClock(lambda: next(readings))
        assert [clock.now(), clock.now(), clock.now()] == [1.0, 2.0, 5.0]
        assert clock.regressions == 0

    def test_clamps_backward_steps_and_counts_them(self):
        readings = iter([5.0, 3.0, 4.0, 6.0])
        clock = MonotonicClock(lambda: next(readings))
        assert clock.now() == 5.0
        assert clock.now() == 5.0  # 3.0 clamped
        assert clock.now() == 5.0  # 4.0 clamped
        assert clock.now() == 6.0
        assert clock.regressions == 2

    def test_freshness_age_never_negative_across_regression(self):
        """The satellite in service terms: evidence taken at t=5 must
        not acquire a negative age when the base clock rewinds."""
        readings = iter([5.0, 1.0])
        clock = MonotonicClock(lambda: next(readings))
        taken_at = clock.now()
        assert clock.now() - taken_at >= 0.0


class TestVirtualClock:
    def test_advance_and_advance_to(self):
        clock = VirtualClock()
        clock.advance(1.5)
        assert clock.now() == 1.5
        clock.advance_to(1.0)  # never backwards
        assert clock.now() == 1.5
        with pytest.raises(ValueError):
            clock.advance(-0.1)


class TestTokenBucket:
    def test_burst_then_throttle(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=0.0)
        bucket.try_take(0.0)
        bucket.try_take(0.0)
        assert not bucket.try_take(0.1)
        assert bucket.try_take(1.0)  # 1.8 tokens refilled by t=1

    def test_backward_time_does_not_refill(self):
        bucket = TokenBucket(rate=100.0, burst=1.0, now=5.0)
        assert bucket.try_take(5.0)
        assert not bucket.try_take(1.0)


# ----------------------------------------------------------------------
# Scheduler unit behaviour (fake engine)
# ----------------------------------------------------------------------


class FakeSnapshot:
    def __init__(self, content: str, taken_at: float = 0.0, version: int = 1):
        self._content = content
        self.taken_at = taken_at
        self.version = version

    def content_hash(self) -> str:
        return self._content


class Collector:
    """Collects (pending, outcome) pairs; indexable by nonce."""

    def __init__(self):
        self.outcomes = {}

    def __call__(self, pending, outcome):
        self.outcomes[pending.nonce] = outcome


def make_scheduler(config=None, *, clock=None, **overrides):
    """A scheduler over a fake engine that returns tagged answers and
    counts real calls."""
    state = {"snapshot": FakeSnapshot("v1"), "calls": []}

    def answer_fn(client, query, snapshot):
        state["calls"].append((client, query))
        return ("answer", client, repr(query), snapshot.content_hash())

    scheduler = QueryScheduler(
        answer_fn=answer_fn,
        snapshot_fn=lambda: state["snapshot"],
        clock=clock,
        config=config or ServingConfig(**overrides),
    )
    return scheduler, state


class TestCoalescing:
    def test_identical_requests_share_one_engine_call(self):
        scheduler, state = make_scheduler()
        done = Collector()
        for nonce in range(4):
            scheduler.submit("a", IsolationQuery(), nonce=nonce, on_done=done)
        scheduler.pump()
        assert len(state["calls"]) == 1
        assert scheduler.metrics.coalesced == 3
        answers = [done.outcomes[n].answer for n in range(4)]
        assert all(a == answers[0] for a in answers)
        assert done.outcomes[0].coalesced is False
        assert done.outcomes[1].coalesced is True

    def test_different_clients_never_share(self):
        scheduler, state = make_scheduler()
        done = Collector()
        scheduler.submit("a", IsolationQuery(), nonce=0, on_done=done)
        scheduler.submit("b", IsolationQuery(), nonce=1, on_done=done)
        scheduler.pump()
        assert len(state["calls"]) == 2
        assert scheduler.metrics.coalesced == 0

    def test_auth_variants_coalesce_to_canonical_query(self):
        """`authenticate` is per-request liveness evidence, not engine
        input: both variants must share one call."""
        scheduler, state = make_scheduler()
        done = Collector()
        scheduler.submit(
            "a", IsolationQuery(authenticate=True), nonce=0, on_done=done
        )
        scheduler.submit(
            "a", IsolationQuery(authenticate=False), nonce=1, on_done=done
        )
        scheduler.pump()
        assert len(state["calls"]) == 1
        assert done.outcomes[0].answer == done.outcomes[1].answer

    def test_never_coalesce_classes_run_individually(self):
        scheduler, state = make_scheduler()
        done = Collector()
        scheduler.submit("a", ExposureHistoryQuery(), nonce=0, on_done=done)
        scheduler.submit("a", ExposureHistoryQuery(), nonce=1, on_done=done)
        scheduler.pump()
        assert len(state["calls"]) == 2
        assert scheduler.metrics.coalesced == 0

    def test_answer_cache_spans_batches_on_unchanged_snapshot(self):
        scheduler, state = make_scheduler()
        done = Collector()
        scheduler.submit("a", IsolationQuery(), nonce=0, on_done=done)
        scheduler.pump()
        scheduler.submit("a", IsolationQuery(), nonce=1, on_done=done)
        scheduler.pump()
        assert len(state["calls"]) == 1
        assert scheduler.metrics.answer_cache_hits == 1
        assert done.outcomes[0].answer == done.outcomes[1].answer

    def test_answer_cache_keyed_by_snapshot_content(self):
        scheduler, state = make_scheduler()
        done = Collector()
        scheduler.submit("a", IsolationQuery(), nonce=0, on_done=done)
        scheduler.pump()
        state["snapshot"] = FakeSnapshot("v2", version=2)
        scheduler.submit("a", IsolationQuery(), nonce=1, on_done=done)
        scheduler.pump()
        assert len(state["calls"]) == 2
        assert done.outcomes[0].answer != done.outcomes[1].answer

    def test_coalesce_disabled_runs_every_request(self):
        scheduler, state = make_scheduler(coalesce=False)
        done = Collector()
        scheduler.submit("a", IsolationQuery(), nonce=0, on_done=done)
        scheduler.submit("a", IsolationQuery(), nonce=1, on_done=done)
        scheduler.pump()
        assert len(state["calls"]) == 2


class TestAdmission:
    def test_shed_oldest_gets_explicit_overload_reply(self):
        scheduler, state = make_scheduler(max_queue=2)
        done = Collector()
        for nonce in range(3):
            scheduler.submit("a", IsolationQuery(), nonce=nonce, on_done=done)
        # nonce 0 (oldest) was shed before the pump.
        assert done.outcomes[0].status == STATUS_OVERLOADED
        assert done.outcomes[0].answer is None
        assert scheduler.metrics.shed == 1
        scheduler.pump()
        assert done.outcomes[1].status == STATUS_OK
        assert done.outcomes[2].status == STATUS_OK

    def test_overload_reply_carries_freshness_once_known(self):
        state = {"snapshot": FakeSnapshot("v1", taken_at=1.0)}
        clock = VirtualClock(start=3.0)
        scheduler = QueryScheduler(
            answer_fn=lambda c, q, s: "ok",
            snapshot_fn=lambda: state["snapshot"],
            freshness_fn=lambda s: ("freshness", s.taken_at),
            clock=clock,
            config=ServingConfig(max_queue=1),
        )
        done = Collector()
        scheduler.submit("a", IsolationQuery(), nonce=0, on_done=done)
        scheduler.pump()  # records the last served snapshot
        scheduler.submit("a", IsolationQuery(), nonce=1, on_done=done)
        scheduler.submit("a", IsolationQuery(), nonce=2, on_done=done)
        assert done.outcomes[1].status == STATUS_OVERLOADED
        assert done.outcomes[1].freshness == ("freshness", 1.0)

    def test_rate_limit_refuses_then_recovers(self):
        clock = VirtualClock()
        scheduler, state = make_scheduler(
            ServingConfig(rate_per_client=1.0, rate_burst=1.0), clock=clock
        )
        done = Collector()
        assert scheduler.submit("a", IsolationQuery(), nonce=0, on_done=done)
        assert scheduler.submit("a", IsolationQuery(), nonce=1, on_done=done) is None
        assert done.outcomes[1].status == STATUS_RATE_LIMITED
        assert scheduler.metrics.rate_limited == 1
        # An unrelated client has its own bucket.
        assert scheduler.submit("b", IsolationQuery(), nonce=2, on_done=done)
        # And the bucket refills with (virtual) time.
        clock.advance(2.0)
        assert scheduler.submit("a", IsolationQuery(), nonce=3, on_done=done)

    def test_batch_metrics_recorded(self):
        scheduler, state = make_scheduler(batch_size=8)
        done = Collector()
        for nonce in range(5):
            scheduler.submit("a", IsolationQuery(), nonce=nonce, on_done=done)
        scheduler.pump()
        assert scheduler.metrics.batches == 1
        assert scheduler.metrics.max_batch == 5
        assert scheduler.metrics.batch_size_hist == {"5-8": 1}
        assert scheduler.metrics.queue_peak == 5


class TestStaleFastPath:
    def make(self, ready):
        state = {
            "snapshot": FakeSnapshot("v1", taken_at=0.0),
            "warmed": [],
        }
        clock = VirtualClock(start=1.0)
        scheduler = QueryScheduler(
            answer_fn=lambda c, q, s: ("answer", s.content_hash()),
            snapshot_fn=lambda: state["snapshot"],
            clock=clock,
            # batch_size=1 keeps a second queued request as "pressure"
            config=ServingConfig(batch_size=1, max_stale_age=30.0),
            ready_fn=lambda s: ready(s.content_hash()),
            warm_fn=lambda s: state["warmed"].append(s.content_hash()),
        )
        return scheduler, state, clock

    def test_uncompiled_snapshot_served_stale_under_pressure(self):
        scheduler, state, clock = self.make(ready=lambda c: c == "v1")
        done = Collector()
        scheduler.submit("a", IsolationQuery(), nonce=0, on_done=done)
        scheduler.pump()  # serves v1, records it as the verified source
        assert done.outcomes[0].stale is False

        state["snapshot"] = FakeSnapshot("v2", taken_at=1.0, version=2)
        q = ReachableDestinationsQuery()
        scheduler.submit("a", q, nonce=1, on_done=done)
        scheduler.submit("a", GeoLocationQuery(), nonce=2, on_done=done)
        scheduler.pump()  # full batch + backlog = pressure
        assert done.outcomes[1].stale is True
        assert done.outcomes[1].answer == ("answer", "v1")
        assert scheduler.metrics.stale_served == 1
        # Background warm requested for the churned snapshot; direct
        # mode runs it when the queue drains.
        scheduler.flush()
        scheduler.idle_work()
        assert state["warmed"] == ["v2"]
        assert scheduler.metrics.warm_compiles == 1

    def test_compiled_snapshot_served_fresh(self):
        scheduler, state, clock = self.make(ready=lambda c: True)
        done = Collector()
        scheduler.submit("a", IsolationQuery(), nonce=0, on_done=done)
        scheduler.pump()
        state["snapshot"] = FakeSnapshot("v2", taken_at=1.0, version=2)
        scheduler.submit("a", IsolationQuery(), nonce=1, on_done=done)
        scheduler.submit("a", GeoLocationQuery(), nonce=2, on_done=done)
        scheduler.pump()
        assert done.outcomes[1].stale is False
        assert done.outcomes[1].answer == ("answer", "v2")

    def test_stale_age_bound_forces_fresh_serve(self):
        scheduler, state, clock = self.make(ready=lambda c: c == "v1")
        done = Collector()
        scheduler.submit("a", IsolationQuery(), nonce=0, on_done=done)
        scheduler.pump()
        clock.advance(100.0)  # the verified evidence is now too old
        state["snapshot"] = FakeSnapshot("v2", taken_at=1.0, version=2)
        scheduler.submit("a", IsolationQuery(), nonce=1, on_done=done)
        scheduler.submit("a", GeoLocationQuery(), nonce=2, on_done=done)
        scheduler.pump()
        assert done.outcomes[1].stale is False
        assert done.outcomes[1].answer == ("answer", "v2")


class TestMetricsHelpers:
    def test_batch_bucket_labels(self):
        assert batch_bucket(1) == "1"
        assert batch_bucket(2) == "2"
        assert batch_bucket(3) == "3-4"
        assert batch_bucket(4) == "3-4"
        assert batch_bucket(5) == "5-8"
        assert batch_bucket(200) == "129-256"

    def test_percentile_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 99) in (99.0, 100.0)  # rank rounding
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 100.0
        assert percentile([], 50) == 0.0


# ----------------------------------------------------------------------
# Verifier row cache (serving-tier acceleration)
# ----------------------------------------------------------------------


class TestRowCache:
    def test_cached_answers_equal_uncached_across_churn(self, monkeypatch):
        # The row cache fronts the atom matrix; the wildcard backend
        # never touches it, so pin the backend the cache exists for.
        monkeypatch.setenv("RVAAS_HSA_BACKEND", "atom")
        bed = build_testbed(
            linear_topology(3, hosts_per_switch=2, clients=["a", "b"]),
            isolate_clients=True,
        )
        cold = build_testbed(
            linear_topology(3, hosts_per_switch=2, clients=["a", "b"]),
            isolate_clients=True,
        )
        bed.service.verifier.enable_row_cache()
        queries = [
            IsolationQuery(),
            ReachableDestinationsQuery(),
            GeoLocationQuery(),
            IsolationQuery(scope=TrafficScope(tp_dst=80)),
        ]
        for _ in range(2):  # second round hits the cache
            for query in queries:
                for client in ("a", "b"):
                    assert bed.service.answer_locally(
                        client, query
                    ) == cold.service.answer_locally(client, query)
        verifier = bed.service.verifier
        assert verifier.row_cache_hits > 0

    def test_disabled_cache_counts_nothing(self):
        bed = build_testbed(linear_topology(2, clients=["a"]))
        bed.service.answer_locally("a", IsolationQuery())
        assert bed.service.verifier.row_cache_hits == 0
        assert bed.service.verifier.row_cache_misses == 0


# ----------------------------------------------------------------------
# Snapshot reuse (monitor clean-mirror cache)
# ----------------------------------------------------------------------


class TestSnapshotReuse:
    def test_clean_mirror_snapshots_are_reused(self):
        bed = build_testbed(linear_topology(2, clients=["a"]))
        monitor = bed.service.monitor
        s1 = bed.service.snapshot()
        built = monitor.metrics.snapshots_built
        s2 = bed.service.snapshot()
        assert monitor.metrics.snapshots_built == built
        assert monitor.metrics.snapshots_reused >= 1
        assert s2.content_hash() == s1.content_hash()
        assert s2.version == s1.version

    def test_reused_snapshot_restamps_taken_at(self):
        bed = build_testbed(linear_topology(2, clients=["a"]))
        s1 = bed.service.snapshot()
        bed.network.sim.run(duration=1.0)
        s2 = bed.service.snapshot()
        if s2.content_hash() == s1.content_hash():
            assert s2.taken_at >= s1.taken_at


# ----------------------------------------------------------------------
# End-to-end: the tier behind the in-band protocol
# ----------------------------------------------------------------------


def serving_bed(**kwargs):
    return build_testbed(
        fat_tree_topology(4, clients=["alice", "bob"]),
        isolate_clients=True,
        serving=ServingConfig(),
        **kwargs,
    )


class TestInBandServing:
    def test_served_answers_match_serial_path(self):
        serial = build_testbed(
            fat_tree_topology(4, clients=["alice", "bob"]),
            isolate_clients=True,
        )
        served = serving_bed()
        assert served.service.scheduler is not None
        for query in (
            IsolationQuery(),
            ReachableDestinationsQuery(),
            GeoLocationQuery(),
        ):
            a = serial.ask("alice", query).response
            b = served.ask("alice", query).response
            assert a.answer == b.answer
            assert b.status == STATUS_OK
        assert served.service.scheduler.metrics.served >= 3

    def test_rate_limited_client_gets_signed_refusal(self):
        bed = build_testbed(
            fat_tree_topology(4, clients=["alice", "bob"]),
            isolate_clients=True,
            serving=ServingConfig(rate_per_client=0.001, rate_burst=1.0),
        )
        first = bed.ask("alice", IsolationQuery())
        assert first.response.status == STATUS_OK
        second = bed.ask("alice", IsolationQuery())
        assert second.response.status == STATUS_RATE_LIMITED
        assert second.response.answer is None
        # The refusal is sealed: it resolved through the client's
        # signature verification like any other response.
        assert second.done

    def test_serving_under_lossy_control_channel(self):
        """Chaos: the tier must keep answering under control-channel
        faults, and its answers must match the serial frontend under
        the *same* fault plan (faults change ground truth — dropped
        install flowmods — so a fault-free bed is not the reference).
        """
        plan = FaultPlan.uniform(
            drop=0.15, delay=0.3, max_extra_delay=0.02, seed=11, active_until=2.0
        )

        def noisy_bed(serving):
            return build_testbed(
                fat_tree_topology(4, clients=["alice", "bob"]),
                isolate_clients=True,
                serving=serving,
                fault_plan=plan,
            )

        served = noisy_bed(ServingConfig())
        serial = noisy_bed(None)
        for when in (3.0, 15.0):
            served.network.sim.run_until(when)
            serial.network.sim.run_until(when)
            for client in ("alice", "bob"):
                a = served.ask(client, IsolationQuery(), max_wait=10.0)
                b = serial.ask(client, IsolationQuery(), max_wait=10.0)
                assert a.response.status == STATUS_OK
                assert a.response.answer == b.response.answer
        assert served.service.scheduler.metrics.served >= 4
