"""The RVaaS controller: the deployable verification service.

Ties together configuration monitoring, logical verification, and
in-band client interaction (§IV-A), runs inside an attested enclave
(:mod:`repro.core.attestation`), maintains snapshot history against
short-lived reconfiguration attacks, and protects its own interception
rules (an adversary deleting them is detected and they are reinstalled).

One secure server is sufficient (§I-A); multiple independent instances
can be attached to the same network for defence in depth — they share
nothing but the switch certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional

from repro.controlplane.controller import ControllerApp
from repro.core.engine import VerificationEngine
from repro.core.history import SnapshotHistory
from repro.core.inband import (
    INTERCEPT_PRIORITY,
    RVAAS_COOKIE,
    AuthRoundOutcome,
    InBandTester,
)
from repro.core.monitor import ConfigurationMonitor, MonitorMode
from repro.core.protocol import (
    STATUS_OK,
    ClientRegistration,
    FreshnessReport,
    QueryRequest,
    QueryResponse,
    SealedRequest,
    ViolationNotice,
    seal_notice,
    seal_response,
    unseal_request,
)
from repro.core.queries import (
    AuthEvidence,
    Endpoint,
    ExposureHistoryAnswer,
    ExposureHistoryQuery,
    ExposureWindowSummary,
    HostExposureReport,
    IsolationAnswer,
    IsolationQuery,
    Query,
    ReachableDestinationsAnswer,
    ReachableDestinationsQuery,
)
from repro.core.snapshot import NetworkSnapshot
from repro.core.verifier import LogicalVerifier
from repro.crypto.enclave import Enclave
from repro.crypto.keys import KeyPair
from repro.crypto.sign import SignatureError
from repro.dataplane.network import Network
from repro.netlib.addresses import IPv4Address
from repro.netlib.constants import (
    ETH_TYPE_LLDP,
    RVAAS_AUTH_PORT,
    RVAAS_MAGIC_PORT,
)
from repro.openflow.messages import FlowMonitorUpdate, PacketIn
from repro.serving.clock import MonotonicClock
from repro.serving.scheduler import (
    PendingQuery,
    QueryScheduler,
    ServeOutcome,
    ServingConfig,
)


from repro.core.queries import TrafficScope as _TrafficScope

_EMPTY_SCOPE = _TrafficScope()


@dataclass(frozen=True)
class TamperAlarm:
    """An integrity event RVaaS raises about its own operation."""

    time: float
    kind: str  # "interception-removed" | "wiring-mismatch" | "bad-request"
    switch: str
    details: str


class RVaaSController(ControllerApp):
    """The stand-alone, trusted verification controller."""

    def __init__(
        self,
        keypair: KeyPair,
        registrations: Dict[str, ClientRegistration],
        *,
        name: str = "rvaas",
        enclave: Optional[Enclave] = None,
        monitor_mode: MonitorMode = MonitorMode.HYBRID,
        mean_poll_interval: float = 5.0,
        randomize_polls: bool = True,
        auth_timeout: float = 0.25,
        auth_retries: int = 0,
        poll_timeout: float = 0.25,
        max_poll_retries: int = 3,
        record_history: bool = True,
        serving: Optional[ServingConfig] = None,
    ) -> None:
        super().__init__(name)
        self.keypair = keypair
        self.registrations = dict(registrations)
        self.enclave = enclave
        # One engine instance is the compilation path for everything
        # this controller verifies: the logical verifier's queries, the
        # watch/audit paths, and the history's content hashing.
        self.engine = VerificationEngine()
        self.verifier = LogicalVerifier(self.registrations, engine=self.engine)
        # Full snapshots are retained so AttackTraceback can replay the
        # recent past (paper §IV-C); the ring buffer bounds memory.
        self.history = SnapshotHistory(retain_snapshots=True, engine=self.engine)
        self.alarms: List[TamperAlarm] = []
        self.queries_served = 0
        self._monitor_mode = monitor_mode
        self._mean_poll_interval = mean_poll_interval
        self._randomize_polls = randomize_polls
        self._auth_timeout = auth_timeout
        self._auth_retries = auth_retries
        self._poll_timeout = poll_timeout
        self._max_poll_retries = max_poll_retries
        self._record_history = record_history
        self.watch_errors = 0
        self.interception_repairs = 0
        self._last_history_version = -1
        self.monitor: Optional[ConfigurationMonitor] = None
        self.inband: Optional[InBandTester] = None
        #: monotonic view of controller time: freshness ages are
        #: computed on it so a replayed or rewound simulator can never
        #: make a reply claim evidence from the future (ISSUE 7)
        self.clock = MonotonicClock(lambda: self.now)
        self._serving_config = serving
        #: the multi-tenant serving tier; None runs the historical
        #: synchronous one-request-at-a-time path
        self.scheduler: Optional[QueryScheduler] = None
        # Invariant watching (proactive alerting).
        self._watched_clients: List[str] = []
        self._watch_verdicts: Dict[str, bool] = {}  # client -> isolated?
        self._watch_pending = False
        #: content hash of the snapshot the last watch check verified;
        #: a coalesced check against byte-identical configuration reuses
        #: the previous verdicts instead of re-answering every query
        self._watch_content_hash: Optional[str] = None
        self.watch_checks_skipped = 0
        self.notices_pushed = 0
        #: the preventive verify-then-install gate, once attached
        self.gate = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, network: Network) -> None:
        """Attach to every switch, install interception, begin monitoring."""
        self.attach(network)
        self.inband = InBandTester(
            self,
            self.keypair,
            self.registrations,
            auth_timeout=self._auth_timeout,
            auth_retries=self._auth_retries,
        )
        self.inband.install_interception()
        self.monitor = ConfigurationMonitor(
            self,
            network.topology,
            mode=self._monitor_mode,
            mean_poll_interval=self._mean_poll_interval,
            randomize_polls=self._randomize_polls,
            poll_timeout=self._poll_timeout,
            max_poll_retries=self._max_poll_retries,
        )
        self.monitor.on_poll_complete(self._after_poll)
        self.monitor.on_delta(self.engine.apply_delta)
        self.monitor.start()
        if self._serving_config is not None:
            # The serving tier shares the controller's monotonic clock
            # (one high-water mark for freshness and rate limiting) and
            # unlocks the verifier's row-level sub-answer cache: batches
            # of distinct queries over one snapshot decode each matrix
            # row once instead of once per query class.
            self.verifier.enable_row_cache()
            self.scheduler = QueryScheduler(
                answer_fn=self._scheduler_answer,
                snapshot_fn=self.snapshot,
                freshness_fn=self._freshness,
                clock=self.clock,
                config=self._serving_config,
                ready_fn=self.verifier.ready,
                warm_fn=self.verifier.warm,
                schedule_fn=lambda delay, cb: network.sim.schedule(delay, cb),
            )

    def attach_gate(self, gate) -> None:
        """Arm a :class:`~repro.core.gate.PreventiveGate` on this service.

        The gate adopts this controller's engine, verifier, monitor
        mirror and signing key (and exempts this controller's own
        FlowMods from interception).  Call after :meth:`start` so the
        monitor exists; the gate itself must have been installed on the
        network *before* any provider channel opened.
        """
        assert self.monitor is not None, "start() before attach_gate()"
        self.gate = gate
        gate.bind_service(self)

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------

    def on_monitor_update(self, switch: str, message: FlowMonitorUpdate) -> None:
        assert self.monitor is not None
        self.monitor.handle_monitor_update(switch, message)
        self._self_protect(switch, message)
        self._maybe_record_history()
        self._schedule_watch_check()

    def on_packet_in(self, switch: str, message: PacketIn) -> None:
        packet = message.packet
        if packet is None:
            return
        if packet.eth_type == ETH_TYPE_LLDP:
            assert self.monitor is not None
            self.monitor.handle_probe(switch, message)
        elif packet.tp_dst == RVAAS_MAGIC_PORT:
            self._handle_query_packet(switch, message)
        elif packet.tp_dst == RVAAS_AUTH_PORT:
            assert self.inband is not None
            self.inband.handle_auth_reply((switch, message.in_port), message)

    # ------------------------------------------------------------------
    # Self-protection
    # ------------------------------------------------------------------

    def _self_protect(self, switch: str, message: FlowMonitorUpdate) -> None:
        """Detect (and repair) tampering with our interception rules."""
        if (
            message.event == "removed"
            and message.cookie == RVAAS_COOKIE
            # Only explicit deletions are hostile; timeouts cannot happen
            # (interception rules are permanent) and "replaced" merely
            # means another (replicated) RVaaS instance re-asserted the
            # same rule.
            and message.reason not in ("timeout", "replaced")
        ):
            self.alarms.append(
                TamperAlarm(
                    time=self.now,
                    kind="interception-removed",
                    switch=switch,
                    details=message.match.describe(),
                )
            )
            assert self.inband is not None
            self.inband.install_interception_on(switch)

    def _after_poll(self, switch: str, when: float) -> None:
        # A punt rule whose FlowMod was lost in transit never appears in
        # the mirror and never raises a "removed" event; the poll is the
        # one place the gap shows, so repair it here.  Not an alarm —
        # channel loss is not tampering.
        assert self.monitor is not None and self.inband is not None
        self.interception_repairs += self.inband.reassert_interception(
            switch, self.monitor.current_rules(switch)
        )
        self._maybe_record_history()

    def _maybe_record_history(self) -> None:
        if not self._record_history or self.monitor is None:
            return
        if self.monitor.version == self._last_history_version:
            return
        self._last_history_version = self.monitor.version
        self.history.record(self.snapshot())

    # ------------------------------------------------------------------
    # Query handling (the Fig. 1 / Fig. 2 pipeline)
    # ------------------------------------------------------------------

    def _handle_query_packet(self, switch: str, message: PacketIn) -> None:
        packet = message.packet
        assert packet is not None
        payload = packet.payload
        if not isinstance(payload, SealedRequest):
            return
        origin = (switch, message.in_port)
        try:
            request = self._unseal(payload)
        except (SignatureError, ValueError, KeyError) as exc:
            self.alarms.append(
                TamperAlarm(
                    time=self.now,
                    kind="bad-request",
                    switch=switch,
                    details=str(exc),
                )
            )
            return
        if self.scheduler is not None:
            self.scheduler.submit(
                request.client,
                request.query,
                nonce=request.nonce,
                on_done=self._on_scheduled,
                context=(request, origin),
            )
            return
        self._serve(request, origin)

    def _unseal(self, sealed: SealedRequest) -> QueryRequest:
        registration = self.registrations.get(sealed.client)
        if registration is None:
            raise KeyError(f"unknown client: {sealed.client!r}")
        unseal = lambda: unseal_request(
            sealed, self.keypair.private, registration.public_key
        )
        if self.enclave is not None:
            return self.enclave.run(unseal)
        return unseal()

    def _serve(self, request: QueryRequest, origin: tuple[str, int]) -> None:
        """Run the logical analysis, optionally an auth round, and reply."""
        self.queries_served += 1
        registration = self.registrations[request.client]
        snapshot = self.snapshot()
        if isinstance(request.query, ExposureHistoryQuery):
            answer = self.exposure_history(
                request.client, victim_host=request.query.victim_host
            )
        else:
            answer = self.verifier.answer(request.query, registration, snapshot)
        if self._needs_auth_round(request.query):
            assert self.inband is not None
            targets = self.verifier.auth_targets(
                registration, snapshot, request.query.scope
            )
            self.inband.start_round(
                targets,
                request.nonce,
                lambda outcome: self._respond_with_auth(
                    request, origin, snapshot, answer, outcome
                ),
            )
        else:
            self._respond(request, origin, snapshot, answer, issued=0, received=0)

    # ------------------------------------------------------------------
    # Scheduled serving (the ISSUE 7 tier)
    # ------------------------------------------------------------------

    def _scheduler_answer(self, client: str, query: Query, snapshot):
        """The scheduler's engine entry point: one answer per unique key."""
        if isinstance(query, ExposureHistoryQuery):
            return self.exposure_history(client, victim_host=query.victim_host)
        return self.verifier.answer(query, self.registrations[client], snapshot)

    def _on_scheduled(self, pending: PendingQuery, outcome: ServeOutcome) -> None:
        """Fan one scheduler outcome back out into a sealed reply."""
        request, origin = pending.context
        if outcome.status != STATUS_OK:
            self._respond_refusal(request, origin, outcome)
            return
        self.queries_served += 1
        snapshot = outcome.snapshot
        answer = outcome.answer
        if self._needs_auth_round(request.query):
            # Authentication is per-request evidence (liveness *now*),
            # so it is never coalesced: each admitted request runs its
            # own round and grafts the evidence onto the shared answer.
            assert self.inband is not None
            registration = self.registrations[request.client]
            targets = self.verifier.auth_targets(
                registration, snapshot, request.query.scope
            )
            self.inband.start_round(
                targets,
                request.nonce,
                lambda auth_outcome: self._respond_with_auth(
                    request, origin, snapshot, answer, auth_outcome
                ),
            )
        else:
            self._respond(request, origin, snapshot, answer, issued=0, received=0)

    def _respond_refusal(
        self, request: QueryRequest, origin: tuple[str, int], outcome: ServeOutcome
    ) -> None:
        """Seal an explicit OVERLOADED / RATE_LIMITED reply (no answer).

        The refusal is still signed and still carries the freshest
        report the service has: a shed client can tell honest overload
        from an adversary eating its packets.
        """
        assert self.network is not None and self.inband is not None
        registration = self.registrations[request.client]
        snapshot = outcome.snapshot
        response = QueryResponse(
            client=request.client,
            nonce=request.nonce,
            answer=None,
            snapshot_version=snapshot.version if snapshot is not None else -1,
            answered_at=self.clock.now(),
            freshness=outcome.freshness,
            status=outcome.status,
        )
        sealed = seal_response(
            response,
            registration.public_key,
            self.keypair.private,
            self.network.sim.rng,
        )
        switch, port = origin
        record = registration.host_at(switch, port)
        client_ip = IPv4Address(record.ip) if record else IPv4Address(0)
        self.inband.send_response(switch, port, client_ip, sealed)

    @staticmethod
    def _needs_auth_round(query: Query) -> bool:
        return (
            isinstance(query, (IsolationQuery, ReachableDestinationsQuery))
            and query.authenticate
        )

    def _respond_with_auth(
        self,
        request: QueryRequest,
        origin: tuple[str, int],
        snapshot: NetworkSnapshot,
        answer,
        outcome: AuthRoundOutcome,
    ) -> None:
        evidence = self._evidence_from(outcome)
        if isinstance(answer, (IsolationAnswer, ReachableDestinationsAnswer)):
            answer = dc_replace(answer, auth=evidence)
        self._respond(
            request,
            origin,
            snapshot,
            answer,
            issued=outcome.issued,
            received=outcome.received,
        )

    def _evidence_from(self, outcome: AuthRoundOutcome) -> AuthEvidence:
        authenticated = tuple(
            self.verifier.resolve_endpoint(switch, port)
            for (switch, port) in sorted(outcome.verified)
        )
        silent = tuple(
            self.verifier.resolve_endpoint(switch, port)
            for (switch, port) in sorted(outcome.silent_targets())
        )
        return AuthEvidence(
            requests_issued=outcome.issued,
            replies_received=outcome.received,
            authenticated_endpoints=authenticated,
            silent_endpoints=silent,
        )

    def _respond(
        self,
        request: QueryRequest,
        origin: tuple[str, int],
        snapshot: NetworkSnapshot,
        answer,
        *,
        issued: int,
        received: int,
    ) -> None:
        assert self.network is not None and self.inband is not None
        registration = self.registrations[request.client]
        response = QueryResponse(
            client=request.client,
            nonce=request.nonce,
            answer=answer,
            snapshot_version=snapshot.version,
            answered_at=self.now,
            auth_requests_issued=issued,
            auth_replies_received=received,
            freshness=self._freshness(snapshot),
        )
        sealed = seal_response(
            response,
            registration.public_key,
            self.keypair.private,
            self.network.sim.rng,
        )
        switch, port = origin
        record = registration.host_at(switch, port)
        client_ip = IPv4Address(record.ip) if record else IPv4Address(0)
        self.inband.send_response(switch, port, client_ip, sealed)

    def _freshness(self, snapshot: NetworkSnapshot) -> FreshnessReport:
        """Staleness disclosure for a reply derived from ``snapshot``.

        Degrade honestly: the verdict is computed on the evidence we
        have, and the reply states exactly how old that evidence is and
        which switches we currently cannot vouch for.

        Ages are computed on the controller's monotonic clock: under
        replayed or simulated time ``self.now`` can step backwards
        across a snapshot's ``taken_at``, and a clamped-to-zero age
        would silently hide real staleness while a raw subtraction
        would report a *negative* one (evidence from the future).
        """
        assert self.monitor is not None
        staleness = self.monitor.switch_staleness()
        return FreshnessReport(
            snapshot_age=max(0.0, self.clock.now() - snapshot.taken_at),
            max_switch_staleness=max(staleness.values(), default=0.0),
            degraded_switches=self.monitor.health.degraded(),
            lost_switches=self.monitor.health.lost(),
        )

    # ------------------------------------------------------------------
    # Direct (out-of-band) access for experiments and operators
    # ------------------------------------------------------------------

    def snapshot(self) -> NetworkSnapshot:
        assert self.monitor is not None, "service not started"
        return self.monitor.snapshot()

    def answer_locally(self, client: str, query: Query):
        """Run a query synchronously on the current snapshot.

        Bypasses the in-band protocol (no crypto, no auth round) — used
        by benchmarks isolating verifier cost, and by operators with
        console access to the RVaaS box.
        """
        if isinstance(query, ExposureHistoryQuery):
            return self.exposure_history(client, victim_host=query.victim_host)
        registration = self.registrations[client]
        return self.verifier.answer(query, registration, self.snapshot())

    def exposure_history(
        self, client: str, *, victim_host: str = ""
    ) -> ExposureHistoryAnswer:
        """Answer the §IV-C history query from the retained snapshots."""
        from repro.core.traceback import AttackTraceback

        traceback = AttackTraceback(self.history, self.registrations)
        registration = self.registrations[client]
        hosts = [
            record.name
            for record in registration.hosts
            if not victim_host or record.name == victim_host
        ]
        reports = []
        entries = 0
        for host in hosts:
            trace = traceback.trace(client, host)
            entries = max(entries, trace.entries_analyzed)
            reports.append(
                HostExposureReport(
                    host=host,
                    windows=tuple(
                        ExposureWindowSummary(
                            opened_at=window.opened_at,
                            closed_at=window.closed_at,
                            ingress_endpoints=window.ingress_ports,
                        )
                        for window in trace.windows
                    ),
                )
            )
        return ExposureHistoryAnswer(
            reports=tuple(reports), history_entries_analyzed=entries
        )

    # ------------------------------------------------------------------
    # Invariant watching: proactive isolation alerts
    # ------------------------------------------------------------------

    def watch_isolation(self, client: str) -> None:
        """Subscribe ``client`` to proactive isolation alerts.

        On every configuration change RVaaS re-verifies the client's
        isolation (coalesced per event batch); the moment the verdict
        flips to *violated*, a signed, encrypted
        :class:`~repro.core.protocol.ViolationNotice` is pushed in-band
        to the client's first access point — no polling needed.
        """
        if client not in self.registrations:
            raise KeyError(f"unknown client: {client!r}")
        if client not in self._watched_clients:
            self._watched_clients.append(client)
            self._watch_verdicts[client] = self._isolation_verdict(client)

    def _isolation_verdict(self, client: str) -> bool:
        answer = self.verifier.isolation(
            self.registrations[client], self.snapshot()
        )
        return answer.isolated

    def _schedule_watch_check(self) -> None:
        """Coalesce per-FlowMod events into one re-verification."""
        if not self._watched_clients or self._watch_pending:
            return
        assert self.network is not None
        self._watch_pending = True
        self.network.sim.schedule(0.001, self._run_watch_check)

    def _run_watch_check(self) -> None:
        self._watch_pending = False
        snapshot = self.snapshot()
        content = snapshot.content_hash()
        # Snapshot the subscriber list: a callback below may subscribe or
        # unsubscribe a client, and mutating the list while iterating it
        # would skip (or double-check) a neighbour.
        clients = list(self._watched_clients)
        if content == self._watch_content_hash and all(
            client in self._watch_verdicts for client in clients
        ):
            # The configuration is byte-identical to what the previous
            # check verified: every verdict (and hence every notice
            # decision) would come out the same, so the whole round is
            # one hash comparison.  New subscribers still get checked.
            self.watch_checks_skipped += 1
            return
        self._watch_content_hash = content
        for client in clients:
            try:
                self._check_watched_client(client, snapshot)
            except Exception as exc:  # noqa: BLE001 — isolate per client
                # One client's verification blowing up must not silence
                # alerts for every other subscriber.
                self.watch_errors += 1
                self.alarms.append(
                    TamperAlarm(
                        time=self.now,
                        kind="watch-error",
                        switch="",
                        details=f"{client}: {exc!r}",
                    )
                )

    def _check_watched_client(
        self, client: str, snapshot: Optional[NetworkSnapshot] = None
    ) -> None:
        registration = self.registrations[client]
        answer = self.verifier.isolation(
            registration, snapshot if snapshot is not None else self.snapshot()
        )
        was_isolated = self._watch_verdicts.get(client, True)
        self._watch_verdicts[client] = answer.isolated
        if was_isolated and not answer.isolated:
            self._push_notice(
                client,
                ViolationNotice(
                    client=client,
                    invariant="isolation",
                    raised_at=self.now,
                    snapshot_version=self.monitor.version if self.monitor else 0,
                    details=(
                        "isolation violated by "
                        + ", ".join(
                            e.labelled() for e in answer.violating_endpoints
                        )
                    ),
                    violating_endpoints=answer.violating_endpoints,
                ),
            )

    def _push_notice(self, client: str, notice: ViolationNotice) -> None:
        assert self.network is not None and self.inband is not None
        registration = self.registrations[client]
        host = registration.hosts[0]
        sealed = seal_notice(
            notice,
            registration.public_key,
            self.keypair.private,
            self.network.sim.rng,
        )
        self.inband.send_response(
            host.switch, host.port, IPv4Address(host.ip), sealed
        )
        self.notices_pushed += 1

    def audit_dead_ends(self, client: str) -> list:
        """Operator-level audit: where does this client's traffic die?

        Returns the mid-path :class:`~repro.hsa.reachability.DropZone`
        list (depth > 0): traffic that was accepted and forwarded, then
        silently discarded — the structural signature of a blackhole.
        Ingress policy drops (anti-spoofing guards, isolation) at
        depth 0 are excluded.  This is an operator/auditor API; it names
        internal switches, so it is intentionally not exposed through
        the client query interface.
        """
        registration = self.registrations[client]
        analysis = self.verifier._analysis_snapshot(self.snapshot())
        dead_ends = []
        for host in registration.hosts:
            result = self.engine.analyze(
                analysis,
                host.switch,
                host.port,
                self.verifier._outbound_space(host, _EMPTY_SCOPE),
                collect_drops=True,
            )
            dead_ends.extend(z for z in result.drops if z.depth > 0)
        return dead_ends

    def probe_topology_now(self) -> None:
        assert self.monitor is not None
        self.monitor.probe_topology()

    def check_wiring(self) -> bool:
        """Verify observed adjacencies against the declared wiring plan."""
        assert self.monitor is not None
        missing, unexpected = self.monitor.verify_wiring()
        if missing or unexpected:
            self.alarms.append(
                TamperAlarm(
                    time=self.now,
                    kind="wiring-mismatch",
                    switch="",
                    details=f"missing={sorted(missing)} unexpected={sorted(unexpected)}",
                )
            )
            return False
        return True
