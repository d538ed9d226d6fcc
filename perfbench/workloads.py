"""One workload of the repository benchmark, run in its own interpreter.

``perfbench/run.py`` starts this file as a child process with a
``PYTHONHASHSEED`` derived from the seed and every ``RVAAS_*`` knob
cleared, so the library runs with its shipped defaults.  The child
builds one deployment, drives it in a closed loop (one operation
outstanding at a time) and prints one JSON object as its last line.

Modes:

* ``setup``   — build and warm the deployment, report the set-up time only;
* ``measure`` — set up, then time operations for ``--seconds`` seconds
  (and at least :data:`RSS_STEP` steps);
* ``trace``   — like ``measure``, with every layer entry point wrapped by
  :mod:`tracing` (set-up runs untraced; spans cover the timed loop).

Correctness checks and reference answers are never timed and never
counted in ``setup_s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time
from dataclasses import replace as dc_replace
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.engine import VerificationEngine
from repro.core.gate import GATE_ALLOW, GateConfig, GatePolicy
from repro.core.protocol import STATUS_OK
from repro.core.queries import (
    BandwidthQuery,
    FairnessQuery,
    GeoLocationQuery,
    IsolationQuery,
    PathLengthQuery,
    ReachableDestinationsQuery,
    ReachingSourcesQuery,
    TrafficScope,
    TransferFunctionQuery,
    WaypointAvoidanceQuery,
)
from repro.core.verifier import LogicalVerifier
from repro.dataplane.asgraph import (
    as_graph_topology,
    client_registration,
    federation_from_asgraph,
)
from repro.dataplane.topologies import fat_tree_topology, isp_topology
from repro.faults.convergence import ground_truth_snapshot, mirror_synced
from repro.netlib.addresses import IPv4Address
from repro.openflow.actions import Drop
from repro.openflow.match import Match
from repro.serving.scheduler import ServingConfig
from repro.testbed import build_testbed

TENANTS = ("alice", "bob", "carol")

#: the AS internetwork of ``federation_queries`` is a fixed input, like
#: fat-tree(4) and isp are for the other two workloads: per-query cost
#: differs ~3x between generator seeds (105-340 ms at 12 ASes), so a
#: seed-dependent graph would turn the seed into the noise source
FEDERATION_ASES = 12
FEDERATION_GRAPH_SEED = 5
FEDERATION_SITES = 6

#: sliding window of decoy rules kept installed by ``gated_churn``
CHURN_WINDOW = 10
#: an address no host owns: rules matching it touch no tenant traffic,
#: so every churn FlowMod is benign and must be allowed
DECOY = IPv4Address.parse("203.0.113.9")
CHURN_PRIORITY = 5
#: churn constants walk tp_dst 1024..65535 with a stride coprime to the
#: span, so no constant repeats within 64512 FlowMods
PORT_SPAN = 65536 - 1024
PORT_STRIDE = 40507
#: virtual-time budget for one FlowMod to reach its gate decision
FLOWMOD_MAX_WAIT = 5.0

#: traced runs report per-layer counts over exactly this many leading
#: steps of the timed loop, so two traced runs at one seed must give
#: identical counts whatever their speed
COUNT_WINDOW = {"inband_asks": 108, "gated_churn": 20, "federation_queries": 8}
#: peak RSS is read after this many steps (about half a 25 s run), not
#: at the end: state grows with each step, so a reading at the end of a
#: fixed-time loop would make a faster program look larger.  In
#: ``inband_asks`` the growth flattens by 15 catalog passes, where seeds
#: agree within 1%.  The loop always runs at least this far.
RSS_STEP = {"inband_asks": 1620, "gated_churn": 400, "federation_queries": 80}


#: ``op_ms.best`` takes this nearest-rank percentile within each request
#: class: the fastest repetition while a class has at most 50 samples
#: (an in-band ask pair repeats ~20 times a run, a federation scope ~50),
#: the fastest 2% of the single FlowMod class of ``gated_churn``
BEST_PCT = 2


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (any order)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def query_classes(scope: TrafficScope) -> list:
    """The nine answerable query classes at one traffic scope."""
    return [
        ReachableDestinationsQuery(scope=scope),
        ReachingSourcesQuery(scope=scope),
        IsolationQuery(scope=scope),
        GeoLocationQuery(scope=scope),
        WaypointAvoidanceQuery(scope=scope, forbidden_regions=("apac",)),
        PathLengthQuery(scope=scope),
        FairnessQuery(scope=scope),
        BandwidthQuery(scope=scope, minimum_mbps=100.0),
        TransferFunctionQuery(scope=scope),
    ]


def seeded_scopes(rng: random.Random) -> List[TrafficScope]:
    """Unscoped plus three ``tp_dst`` scopes drawn from ``rng``."""
    ports = rng.sample(range(1024, 49152), 3)
    return [TrafficScope()] + [TrafficScope(tp_dst=port) for port in ports]


class Op(NamedTuple):
    """Outcome of one timed operation.

    ``request`` names the request class: operations of one class repeat
    the same work (an in-band ask of one (tenant, query) pair, a
    federated query of one scope).  Every FlowMod of ``gated_churn``
    is new content, so all of them form one class.
    """

    kind: str
    seconds: float
    ok: bool
    request: object = None


def timed_ask(bed, tenant: str, query) -> Tuple[float, Optional[object]]:
    """One in-band ask; returns (wall seconds, response or None on timeout)."""
    start = time.perf_counter()
    try:
        handle = bed.ask(tenant, query)
    except TimeoutError:
        return time.perf_counter() - start, None
    return time.perf_counter() - start, handle.response


def answer_ok(response, reference) -> bool:
    return (
        response is not None
        and response.status == STATUS_OK
        and response.answer == reference
    )


# ----------------------------------------------------------------------
# inband_asks: the client read path with warm verifier caches
# ----------------------------------------------------------------------


class InbandAsks:
    """Closed-loop in-band asks over a seeded shuffle of the full catalog."""

    name = "inband_asks"
    op_kind = "ask"
    query_kind = "ask"

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.bed = build_testbed(
            fat_tree_topology(4, clients=TENANTS),
            seed=seed,
            isolate_clients=True,
            serving=ServingConfig(),
        )
        catalog = [q for s in seeded_scopes(rng) for q in query_classes(s)]
        rng.shuffle(catalog)
        self.catalog = catalog
        self.tenants = self.bed.client_names()
        # The warm-up pass: every (tenant, query) once.  Its answers are
        # the references later asks must reproduce.
        self.reference: Dict[tuple, object] = {}
        for query in catalog:
            for tenant in self.tenants:
                _, response = timed_ask(self.bed, tenant, query)
                if response is None or response.status != STATUS_OK:
                    raise RuntimeError(f"warm-up ask failed: {tenant} {query}")
                self.reference[(tenant, query)] = response.answer

    def prepare(self) -> None:
        """Nothing beyond the warm-up pass, whose answers are the references."""

    def step(self, index: int) -> List[Op]:
        tenant = self.tenants[index % len(self.tenants)]
        query = self.catalog[(index // len(self.tenants)) % len(self.catalog)]
        seconds, response = timed_ask(self.bed, tenant, query)
        ok = answer_ok(response, self.reference[(tenant, query)])
        return [Op("ask", seconds, ok, (tenant, query))]

    def finish(self) -> List[Tuple[str, bool]]:
        return []

    def engines(self) -> List[VerificationEngine]:
        return [self.bed.service.engine]

    def close(self) -> None:
        self.bed.close()


# ----------------------------------------------------------------------
# gated_churn: the provider write path beside client reads
# ----------------------------------------------------------------------


class GatedChurn:
    """Benign FlowMod churn through the preventive gate, one ask per step."""

    name = "gated_churn"
    op_kind = "flowmod"
    query_kind = "ask"

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.bed = build_testbed(
            isp_topology(clients=TENANTS),
            seed=seed,
            isolate_clients=True,
            gate=GateConfig(policy=GatePolicy(forbidden_regions=("offshore",))),
        )
        self.gate = self.bed.gate
        switches = sorted(self.bed.topology.switches)
        offset = rng.randrange(len(switches))
        self.switches = switches[offset:] + switches[:offset]
        # Fresh tp_dst constants: every speculative snapshot is new
        # content, so no step returns to memoised state.  An affine walk
        # over the port range visits each of its values once.
        self.port_base = rng.randrange(PORT_SPAN)
        self.installed = 0
        self.window: List[Tuple[str, Match]] = []
        self.tenants = self.bed.client_names()
        self.catalog = query_classes(TrafficScope())
        for _ in range(CHURN_WINDOW):
            seconds, ok = self._add()
            if not ok:
                raise RuntimeError("window fill FlowMod was not allowed")
        # One full turnover of the window, so that the timed loop's
        # deletes hit rules installed by churn steps, as they do for the
        # rest of the run, not the rules of the fill.
        for _ in range(CHURN_WINDOW):
            if not (self._add()[1] and self._remove_oldest()[1]):
                raise RuntimeError("warm-up FlowMod was not allowed")

    def prepare(self) -> None:
        """Reference answers for every (tenant, query), asked on the filled window."""
        self.reference: Dict[tuple, object] = {}
        for query in self.catalog:
            for tenant in self.tenants:
                _, response = timed_ask(self.bed, tenant, query)
                if response is None or response.status != STATUS_OK:
                    raise RuntimeError(f"reference ask failed: {tenant} {query}")
                self.reference[(tenant, query)] = response.answer

    def _flowmod(self, send) -> Tuple[float, bool]:
        """Send one FlowMod; time it until the gate has decided it."""
        decisions = self.gate.decisions
        before = len(decisions)
        sim = self.bed.network.sim
        start = time.perf_counter()
        send()
        deadline = sim.now + FLOWMOD_MAX_WAIT
        while len(decisions) == before and sim.now < deadline:
            if not sim.step():
                break
        seconds = time.perf_counter() - start
        decided = len(decisions) > before
        return seconds, decided and decisions[before].verdict == GATE_ALLOW

    def _add(self) -> Tuple[float, bool]:
        switch = self.switches[self.installed % len(self.switches)]
        match = Match(
            ip_src=DECOY,
            ip_dst=DECOY,
            tp_dst=1024 + (self.port_base + PORT_STRIDE * self.installed) % PORT_SPAN,
        )
        self.installed += 1
        self.window.append((switch, match))
        return self._flowmod(
            lambda: self.bed.provider.install_flow(
                switch, match, (Drop(),), priority=CHURN_PRIORITY
            )
        )

    def _remove_oldest(self) -> Tuple[float, bool]:
        switch, match = self.window.pop(0)
        return self._flowmod(
            lambda: self.bed.provider.remove_flow(
                switch, match, priority=CHURN_PRIORITY, strict=True
            )
        )

    def step(self, index: int) -> List[Op]:
        ops = [Op("flowmod", *self._add())]
        if len(self.window) > CHURN_WINDOW:
            ops.append(Op("flowmod", *self._remove_oldest()))
        tenant = self.tenants[index % len(self.tenants)]
        query = self.catalog[(index // len(self.tenants)) % len(self.catalog)]
        seconds, response = timed_ask(self.bed, tenant, query)
        ops.append(Op("ask", seconds, answer_ok(response, self.reference[(tenant, query)])))
        return ops

    def finish(self) -> List[Tuple[str, bool]]:
        """The mirror converged and its contract answers match ground truth."""
        bed = self.bed
        bed.run(1.0)
        monitor = bed.service.monitor
        synced = mirror_synced(monitor, bed.network)
        truth = ground_truth_snapshot(monitor, bed.network)
        mirror = bed.service.snapshot()
        return [
            ("mirror_synced", synced),
            ("contract_matches_ground_truth",
             contract_answers(bed, mirror) == contract_answers(bed, truth)),
        ]

    def engines(self) -> List[VerificationEngine]:
        return [self.bed.service.engine]

    def close(self) -> None:
        self.bed.close()


def contract_answers(bed, snapshot) -> Dict[str, tuple]:
    """Every tenant's contract on ``snapshot``, from a fresh verifier.

    Fresh per call because ground-truth snapshots share a version
    sentinel and the verifier's analysis cache is keyed by version.
    """
    verifier = LogicalVerifier(bed.registrations, engine=VerificationEngine())
    answers = {}
    for name in sorted(bed.registrations):
        registration = bed.registrations[name]
        per_host = tuple(
            verifier.reachable_destinations(
                dc_replace(registration, hosts=(host,)), snapshot
            )
            for host in registration.hosts
        )
        answers[name] = (
            per_host,
            verifier.isolation(registration, snapshot),
            verifier.waypoint_avoidance(registration, snapshot, ("offshore",)),
        )
    verifier.engine.close()
    return answers


# ----------------------------------------------------------------------
# federation_queries: cross-provider reads, no simulator and no crypto
# ----------------------------------------------------------------------


class FederationQueries:
    """Warm federated queries cycling four traffic scopes."""

    name = "federation_queries"
    op_kind = "fed_query"
    query_kind = "fed_query"

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.asg = as_graph_topology(
            FEDERATION_ASES,
            seed=FEDERATION_GRAPH_SEED,
            client_sites=FEDERATION_SITES,
        )
        self.federation = federation_from_asgraph(self.asg)
        self.federation.prewarm()
        self.registration = client_registration(self.asg)
        scopes = seeded_scopes(rng)
        offset = rng.randrange(len(scopes))
        self.scopes = scopes[offset:] + scopes[:offset]
        # Every scope runs once before timing starts: each timed query
        # then does the same, warm, class of work.  These set-up answers
        # are the ones the timed queries must reproduce.
        self.first = {
            scope: self.federation.federated_query(self.registration, scope=scope)
            for scope in self.scopes
        }

    def prepare(self) -> None:
        """Zero the running totals the traced run reads (answers are not kept)."""
        self.counters = {
            "federation.queries": 0,
            "federation.messages": 0,
            "federation.domains": 0,
        }

    def step(self, index: int) -> List[Op]:
        scope = self.scopes[index % len(self.scopes)]
        start = time.perf_counter()
        answer = self.federation.federated_query(self.registration, scope=scope)
        seconds = time.perf_counter() - start
        self.counters["federation.queries"] += 1
        self.counters["federation.messages"] += answer.federated_messages
        self.counters["federation.domains"] += len(answer.domains_involved)
        ok = not answer.truncated and answer.endpoints == self.first[scope].endpoints
        return [Op("fed_query", seconds, ok, scope)]

    def finish(self) -> List[Tuple[str, bool]]:
        """The set-up answers against a second federation on the legacy path.

        ``mode="recompile"`` rebuilds each domain's transfer function for
        every work item, so the reference shares no engine, reach or
        matrix cache with the measured federation, and a wrong answer on
        the cached path differs from it.  It runs after the timed loop,
        whose peak RSS it must not raise.
        """
        reference = federation_from_asgraph(self.asg)
        try:
            return [
                (
                    f"reference_endpoints[tp_dst={scope.tp_dst}]",
                    not first.truncated
                    and first.endpoints
                    == reference.federated_query(
                        self.registration, scope=scope, mode="recompile"
                    ).endpoints,
                )
                for scope, first in self.first.items()
            ]
        finally:
            reference.close()

    def engines(self) -> List[VerificationEngine]:
        return [domain.engine for _, domain in sorted(self.federation.domains.items())]

    def close(self) -> None:
        self.federation.close()


WORKLOADS = {w.name: w for w in (InbandAsks, GatedChurn, FederationQueries)}


def effective_knobs(workload) -> Dict[str, object]:
    """The engine configuration the library chose on its own."""
    engine = workload.engines()[0]
    return {
        "backend": engine.backend,
        "pool_mode": engine.pool_mode,
        "pool_workers": engine.workers,
        "rvaas_env": sorted(k for k in os.environ if k.startswith("RVAAS_")),
    }


def traced_step(index: int, window: int) -> bool:
    """Whether step ``index`` of a traced run records spans.

    The count window is traced whole.  After it, steps alternate traced
    and untraced, with the phase flipped every ``window`` steps so that
    no (tenant, query) pair of a cycle that is a multiple of two always
    lands on the same side; the two interleaved halves share the host's
    conditions, which makes their difference the tracing overhead.
    """
    return index < window or (index + index // window) % 2 == 0


def peak_rss_mb() -> float:
    """Peak resident set size of this interpreter so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drive(workload, seconds: float, tracer=None) -> dict:
    """The timed closed loop; returns latencies, counts and check results."""
    window = COUNT_WINDOW[workload.name]
    latencies: Dict[str, List[float]] = {}
    #: primary-op latencies by request class
    by_request: Dict[object, List[float]] = {}
    timeline: List[tuple] = []
    #: traced runs: primary-op latencies after the window, by traced-ness
    paired: Dict[bool, List[float]] = {True: [], False: []}
    attempted = failed = traced_steps = 0
    window_counts = None
    rss_peak_mb = None
    if tracer is not None:
        baseline = tracer.program_counters(workload)
        tracer.start()
    index = 0
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    min_steps = max(window, RSS_STEP[workload.name])
    while index < min_steps or time.perf_counter() < deadline:
        traced = tracer is not None and traced_step(index, window)
        if tracer is not None:
            tracer.op = index
            tracer.active = traced
            traced_steps += traced
        for op in workload.step(index):
            latencies.setdefault(op.kind, []).append(op.seconds)
            if op.kind == workload.op_kind:
                by_request.setdefault(op.request, []).append(op.seconds)
            timeline.append((time.perf_counter() - loop_start, op.kind, op.seconds))
            if tracer is not None and index >= window and op.kind == workload.op_kind:
                paired[traced].append(op.seconds)
            attempted += 1
            failed += not op.ok
        index += 1
        if index == RSS_STEP[workload.name]:
            rss_peak_mb = peak_rss_mb()
        if tracer is not None and index == window:
            window_counts = tracer.window_counts(workload, baseline)
    loop_seconds = time.perf_counter() - loop_start
    if tracer is not None:
        tracer.stop()
    checks = workload.finish()
    attempted += len(checks)
    failed += sum(not ok for _, ok in checks)
    return {
        "steps": index,
        "traced_steps": traced_steps,
        "paired": paired,
        "loop_seconds": loop_seconds,
        "latencies": latencies,
        "by_request": by_request,
        "timeline": timeline,
        "attempted": attempted,
        "failed": failed,
        "checks": dict(checks),
        "window_counts": window_counts,
        "rss_peak_mb": rss_peak_mb,
    }


def summarize(workload, run: dict) -> dict:
    """Latency percentiles and rates of one timed loop."""
    lat = run["latencies"]
    ops = lat.get(workload.op_kind, [])
    queries = lat.get(workload.query_kind, [])
    if not ops or not queries:
        raise RuntimeError("the timed loop completed no operation")
    half = len(ops) // 2
    best = [percentile(values, BEST_PCT) for values in run["by_request"].values()]
    return {
        "op_ms.best": sum(best) / len(best) * 1e3,
        "op_ms.mean": sum(ops) / len(ops) * 1e3,
        "op_ms.p10": percentile(ops, 10) * 1e3,
        "op_ms.p50": percentile(ops, 50) * 1e3,
        "op_ms.p90": percentile(ops, 90) * 1e3,
        "op_ms.p99": percentile(ops, 99) * 1e3,
        "ops_per_s": len(ops) / run["loop_seconds"],
        "query_ms.p50": percentile(queries, 50) * 1e3,
        "query_ms.p90": percentile(queries, 90) * 1e3,
        "samples": {kind: len(values) for kind, values in lat.items()},
        "request_classes": len(best),
        # stationarity: the first and second half of the run should agree
        "op_ms.p50.first_half": percentile(ops[:half] or ops, 50) * 1e3,
        "op_ms.p50.second_half": percentile(ops[half:], 50) * 1e3,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spans", help="trace mode: where to write the spans")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]()
    start = time.perf_counter()
    workload.setup(args.seed)
    setup_seconds = time.perf_counter() - start
    result = {
        "setup_s": setup_seconds,
        "knobs": effective_knobs(workload),
        "rss_peak_mb": peak_rss_mb(),
    }
    if args.mode != "setup":
        workload.prepare()
        gc.collect()
        run = drive(workload, args.seconds, tracer)
        result.update(
            attempted=run["attempted"],
            failed=run["failed"],
            checks=run["checks"],
            rss_peak_mb=run["rss_peak_mb"],
            steps=run["steps"],
            traced_steps=run["traced_steps"],
            summary=summarize(workload, run),
            timeline=run["timeline"],
        )
        if tracer is not None:
            layers = tracer.layer_metrics(
                run["window_counts"], COUNT_WINDOW[args.workload], run["traced_steps"]
            )
            traced, untraced = run["paired"][True], run["paired"][False]
            if len(traced) < 10 or len(untraced) < 10:
                raise RuntimeError("too few steps after the count window to pair")
            overhead = (percentile(traced, 50) - percentile(untraced, 50)) * 1e3
            layers["trace.overhead_ms"] = overhead
            layers["trace.overhead_pct"] = 100.0 * overhead / (percentile(untraced, 50) * 1e3)
            result["layers"] = layers
            if args.spans:
                tracer.write_spans(Path(args.spans))
    workload.close()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
