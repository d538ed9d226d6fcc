"""The logical verification engine: answers queries over a snapshot.

Implements §IV-A2: "relevant routes are computed in the logical space,
given the current network snapshot collected by the RVaaS controller"
via Header Space Analysis.  Every public method takes the querying
client's registration and a :class:`~repro.core.snapshot.NetworkSnapshot`
and returns one of the answer dataclasses of :mod:`repro.core.queries` —
endpoint-level information only, never internal paths (§IV-A
confidentiality).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import networkx as nx

from repro.core.protocol import ClientRegistration, HostRecord
from repro.core.queries import (
    Answer,
    BandwidthAnswer,
    BandwidthQuery,
    BandwidthReport,
    Endpoint,
    FairnessAnswer,
    FairnessQuery,
    GeoLocationAnswer,
    GeoLocationQuery,
    IsolationAnswer,
    IsolationQuery,
    MeterReport,
    PathLengthAnswer,
    PathLengthQuery,
    PathLengthReport,
    Query,
    ReachableDestinationsAnswer,
    ReachableDestinationsQuery,
    ReachingSourcesAnswer,
    ReachingSourcesQuery,
    TrafficScope,
    TransferFunctionAnswer,
    TransferFunctionEntry,
    TransferFunctionQuery,
    WaypointAvoidanceAnswer,
    WaypointAvoidanceQuery,
)
from repro.core.engine import VerificationEngine
from repro.core.snapshot import NetworkSnapshot
from repro.hsa.headerspace import HeaderSpace
from repro.hsa.reachability import ReachabilityResult
from repro.hsa.wildcard import Wildcard
from repro.netlib.addresses import IPv4Address, IPv4Network
from repro.netlib.constants import (
    ETH_TYPE_LLDP,
    IP_PROTO_UDP,
    RVAAS_AUTH_PORT,
    RVAAS_MAGIC_PORT,
)
from repro.openflow.actions import Meter as MeterAction

#: The header spaces legitimately punted to the control plane by the
#: RVaaS interception rules; controller zones outside them indicate a
#: rule that copies client traffic to the (untrusted) control plane.
_RVAAS_PUNT_SPACE = HeaderSpace(
    (
        Wildcard.from_fields(ip_proto=IP_PROTO_UDP, tp_dst=RVAAS_MAGIC_PORT),
        Wildcard.from_fields(ip_proto=IP_PROTO_UDP, tp_dst=RVAAS_AUTH_PORT),
        Wildcard.from_fields(eth_type=ETH_TYPE_LLDP),
    )
)

#: Pseudo-endpoint reported when client traffic can be copied to the
#: provider's control plane.
CONTROL_PLANE_ENDPOINT = Endpoint(
    switch="<control-plane>", port=-1, host="<controller>", client=""
)


class LogicalVerifier:
    """Answers the query taxonomy for registered clients."""

    def __init__(
        self,
        registrations: Mapping[str, ClientRegistration],
        *,
        exclude_own_interception: bool = True,
        engine: Optional[VerificationEngine] = None,
    ) -> None:
        self.registrations = dict(registrations)
        self.exclude_own_interception = exclude_own_interception
        #: the shared compilation/analysis cache; every reachability
        #: propagation of every query class goes through it
        self.engine = engine if engine is not None else VerificationEngine()
        self._port_owner: Dict[Tuple[str, int], Tuple[str, str]] = {}
        for registration in self.registrations.values():
            for host in registration.hosts:
                self._port_owner[host.access_point] = (
                    host.name,
                    registration.name,
                )
        self.queries_answered = 0
        self._analysis_cache: Tuple[
            Optional[int], Optional[NetworkSnapshot], Optional[NetworkSnapshot]
        ] = (None, None, None)
        #: row-level sub-answer cache (ISSUE 7): decoded endpoint sets
        #: keyed by (direction, content hash, access point, ip, scope).
        #: Distinct query classes on the same (client, scope, snapshot)
        #: share these sets — isolation re-reads what reachable just
        #: decoded — so the serving tier enables it (entries > 0) to
        #: amortise matrix-row decoding across a batch.  Off by default:
        #: the synchronous frontend keeps its historical cost profile.
        self._row_cache: "OrderedDict[tuple, Optional[frozenset]]" = OrderedDict()
        self._row_cache_entries = 0
        self._row_lock = threading.Lock()
        self.row_cache_hits = 0
        self.row_cache_misses = 0
        if self.engine.backend == "atom":
            # Register the predicates our query spaces are built from, so
            # they are unions of atoms and the matrix can serve them
            # exactly.  Queries whose spaces still fail to encode (e.g.
            # an unseeded traffic-scope constant) fall back per query.
            self.engine.seed_atoms(self._atom_seed_wildcards())

    def _atom_seed_wildcards(self) -> List[Wildcard]:
        """Predicates the atom universe must refine for exact serving."""
        seeds: List[Wildcard] = [Wildcard.from_fields(vlan_id=0)]
        seeds.extend(_RVAAS_PUNT_SPACE.wildcards)
        for registration in self.registrations.values():
            for host in registration.hosts:
                seeds.append(Wildcard.from_fields(ip_src=host.ip))
                seeds.append(Wildcard.from_fields(ip_dst=host.ip))
        return seeds

    # ------------------------------------------------------------------
    # Analysis view of a snapshot
    # ------------------------------------------------------------------

    def _analysis_snapshot(self, snapshot: NetworkSnapshot) -> NetworkSnapshot:
        """The snapshot as seen by data-traffic analysis.

        RVaaS's *own* interception rules (identified by cookie, exact
        match, and punt-only action) are elided: they are the service's
        signalling plane, not part of the client's routing service, and
        carrying their high-priority shadows through every switch
        multiplies wildcard-union sizes by orders of magnitude.  A rule
        merely *claiming* the cookie but differing in match or action is
        kept — an adversary cannot hide behaviour behind the cookie.
        """
        if not self.exclude_own_interception:
            return snapshot
        cached_version, cached_raw, cached = self._analysis_cache
        if cached is not None and cached_version == snapshot.version:
            return cached
        from repro.core.inband import RVAAS_COOKIE, interception_matches
        from repro.openflow.actions import ToController

        own_matches = set(interception_matches())

        def is_own(rule) -> bool:
            return (
                rule.cookie == RVAAS_COOKIE
                and rule.match in own_matches
                and len(rule.actions) == 1
                and isinstance(rule.actions[0], ToController)
            )

        # Share rule tuples and per-switch content hashes wherever we can,
        # so the engine's per-switch cache keys cost O(changed switches)
        # per version instead of rehashing the whole network: a switch the
        # filter leaves untouched reuses the raw snapshot's hash (same
        # rule identities, hence same digest), and a filtered switch whose
        # raw rules did not change since the previous version carries its
        # previous filtered hash forward.
        filtered_rules: Dict[str, Tuple] = {}
        seeded_hashes: Dict[str, str] = {}
        for switch, rules in snapshot.rules.items():
            kept = tuple(r for r in rules if not is_own(r))
            if len(kept) == len(rules):
                filtered_rules[switch] = rules
                seeded_hashes[switch] = snapshot.switch_content_hash(switch)
                continue
            filtered_rules[switch] = kept
            if (
                cached_raw is not None
                and switch in cached_raw.rules
                and cached_raw.switch_content_hash(switch)
                == snapshot.switch_content_hash(switch)
            ):
                seeded_hashes[switch] = cached.switch_content_hash(switch)

        filtered = NetworkSnapshot(
            version=snapshot.version,
            taken_at=snapshot.taken_at,
            rules=filtered_rules,
            meters=snapshot.meters,
            wiring=snapshot.wiring,
            edge_ports=snapshot.edge_ports,
            switch_ports=snapshot.switch_ports,
            locations=snapshot.locations,
            link_capacities=snapshot.link_capacities,
            _switch_hashes=seeded_hashes,
        )
        self._analysis_cache = (snapshot.version, snapshot, filtered)
        return filtered

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def answer(
        self,
        query: Query,
        registration: ClientRegistration,
        snapshot: NetworkSnapshot,
    ) -> Answer:
        """Answer any supported query (logical part only)."""
        self.queries_answered += 1
        if isinstance(query, ReachableDestinationsQuery):
            return self.reachable_destinations(registration, snapshot, query.scope)
        if isinstance(query, ReachingSourcesQuery):
            return self.reaching_sources(
                registration, snapshot, query.scope, query.destination_host
            )
        if isinstance(query, IsolationQuery):
            return self.isolation(registration, snapshot, query.scope)
        if isinstance(query, GeoLocationQuery):
            return self.geo_location(registration, snapshot, query.scope)
        if isinstance(query, WaypointAvoidanceQuery):
            return self.waypoint_avoidance(
                registration, snapshot, query.forbidden_regions, query.scope
            )
        if isinstance(query, PathLengthQuery):
            return self.path_length(
                registration, snapshot, query.destination_host, query.scope
            )
        if isinstance(query, FairnessQuery):
            return self.fairness(registration, snapshot, query.scope)
        if isinstance(query, BandwidthQuery):
            return self.bandwidth(
                registration,
                snapshot,
                destination_host=query.destination_host,
                minimum_mbps=query.minimum_mbps,
                scope=query.scope,
            )
        if isinstance(query, TransferFunctionQuery):
            return self.transfer_function(registration, snapshot, query.scope)
        raise TypeError(f"unsupported query type: {type(query).__name__}")

    # ------------------------------------------------------------------
    # Header space construction
    # ------------------------------------------------------------------

    def _outbound_space(
        self, host: HostRecord, scope: TrafficScope
    ) -> HeaderSpace:
        """The traffic this host emits: its source IP, untagged, in scope."""
        fields = {"ip_src": host.ip, "vlan_id": 0}
        fields.update(scope.constraints())
        return HeaderSpace.single(Wildcard.from_fields(**fields))

    def _inbound_space(
        self, host: HostRecord, scope: TrafficScope
    ) -> HeaderSpace:
        """Traffic addressed to this host — any source (spoofing allowed)."""
        fields = {"ip_dst": host.ip, "vlan_id": 0}
        fields.update(scope.constraints())
        return HeaderSpace.single(Wildcard.from_fields(**fields))

    # ------------------------------------------------------------------
    # Endpoint resolution
    # ------------------------------------------------------------------

    def resolve_endpoint(self, switch: str, port: int) -> Endpoint:
        host, client = self._port_owner.get((switch, port), ("", ""))
        return Endpoint(switch=switch, port=port, host=host, client=client)

    def _endpoints_from_result(
        self, result: ReachabilityResult, *, include_control_plane: bool = True
    ) -> List[Endpoint]:
        endpoints = {
            self.resolve_endpoint(zone.switch, zone.port)
            for zone in result.zones
            if zone.kind in ("edge", "unbound")
        }
        if include_control_plane:
            for zone in result.zones:
                if zone.kind != "controller":
                    continue
                leaked = zone.space.subtract(_RVAAS_PUNT_SPACE)
                if not leaked.is_empty():
                    endpoints.add(CONTROL_PLANE_ENDPOINT)
        return sorted(endpoints, key=lambda e: (e.switch, e.port))

    # ------------------------------------------------------------------
    # Matrix serving (atom backend)
    # ------------------------------------------------------------------

    def _atom_pair(self, analysis: NetworkSnapshot):
        """(AtomSpace, ReachabilityMatrix) for this snapshot, or None."""
        if self.engine.backend != "atom":
            return None
        return self.engine.atom_artifacts(analysis)

    def _matrix_outbound_endpoints(
        self, pair, host: HostRecord, scope: TrafficScope
    ) -> Optional[set]:
        """Endpoints the host's outbound traffic reaches — pure lookups.

        Mirrors :meth:`_endpoints_from_result` on the precomputed
        matrix: edge/unbound zones are one AND against the row's reach
        bits; the control-plane check applies the zone's rewrite pins to
        the matching segment and tests it against the punt complement —
        both exact at atom granularity.  ``None`` means this query
        cannot be served exactly (unencodable space, unknown ingress)
        and the caller must take the wildcard path.
        """
        space, matrix = pair
        bits = space.encode_space(self._outbound_space(host, scope))
        if bits is None:
            return None
        row = matrix.row((host.switch, host.port))
        if row is None:
            return None
        punt_bits = space.encode_space(_RVAAS_PUNT_SPACE)
        if punt_bits is None:
            return None
        endpoints = set()
        for (kind, switch, port), reach_bits in row.reach.items():
            if kind != "controller" and reach_bits & bits:
                endpoints.add(self.resolve_endpoint(switch, port))
        leak_mask = space.full_bits & ~punt_bits
        leaked = False
        for zone_key, per_pins in row.zones.items():
            if leaked or zone_key[0] != "controller":
                continue
            for pins, zone_bits in per_pins.items():
                segment = zone_bits & bits
                if segment and space.apply_pins(segment, pins) & leak_mask:
                    endpoints.add(CONTROL_PLANE_ENDPOINT)
                    leaked = True
                    break
        return endpoints

    def _matrix_reaching_sources(
        self, pair, host: HostRecord, scope: TrafficScope
    ) -> Optional[set]:
        """Edge ports whose traffic reaches the host — inverse transfer
        as a column scan over the per-ingress rows."""
        space, matrix = pair
        bits = space.encode_space(self._inbound_space(host, scope))
        if bits is None:
            return None
        target = ("edge", host.switch, host.port)
        endpoints = set()
        for ref in matrix.ingresses():
            if ref == (host.switch, host.port):
                continue
            row = matrix.row(ref)
            if row is not None and row.reach.get(target, 0) & bits:
                endpoints.add(self.resolve_endpoint(*ref))
        return endpoints

    def _locations_key(self, snapshot: NetworkSnapshot) -> tuple:
        """Fingerprint of the switch→region assignment (geo cache key)."""
        entries = []
        for name in sorted(snapshot.switch_names()):
            location = snapshot.location_of(name)
            entries.append((name, location.region if location else None))
        return tuple(entries)

    def _matrix_regions(
        self,
        pair,
        host: HostRecord,
        scope: TrafficScope,
        snapshot: NetworkSnapshot,
    ) -> Optional[set]:
        """Regions the host's outbound traffic can traverse."""
        space, matrix = pair
        bits = space.encode_space(self._outbound_space(host, scope))
        if bits is None:
            return None
        row = matrix.row((host.switch, host.port))
        if row is None:
            return None
        regions = set()
        for switch, traversed_bits in row.traversed.items():
            if traversed_bits & bits:
                location = snapshot.location_of(switch)
                if location is not None:
                    regions.add(location.region)
        return regions

    # ------------------------------------------------------------------
    # Row-level sub-answer cache (serving tier)
    # ------------------------------------------------------------------

    def enable_row_cache(self, entries: int = 8192) -> None:
        """Turn on endpoint-set memoisation for matrix-served lookups.

        Safe because the cached value is a pure function of the cache
        key: the analysis snapshot's content hash pins the matrix, the
        access point + host address pin the row, and the scope pins the
        encoded header set (geo lookups add a fingerprint of the switch
        locations, which are not part of the content hash).  Entries are
        frozensets handed back by reference — callers union them into
        their own accumulators and must never mutate them.
        """
        self._row_cache_entries = max(0, int(entries))
        if self._row_cache_entries == 0:
            with self._row_lock:
                self._row_cache.clear()

    def _cached_rows(
        self,
        kind: str,
        analysis: NetworkSnapshot,
        host: HostRecord,
        scope: TrafficScope,
        compute,
        extra: object = None,
    ) -> Optional[frozenset]:
        if self._row_cache_entries <= 0:
            computed = compute()
            return None if computed is None else frozenset(computed)
        key = (
            kind,
            analysis.content_hash(),
            host.switch,
            host.port,
            host.ip,
            scope,
            extra,
        )
        with self._row_lock:
            if key in self._row_cache:
                self.row_cache_hits += 1
                self._row_cache.move_to_end(key)
                return self._row_cache[key]
            self.row_cache_misses += 1
        computed = compute()
        frozen = None if computed is None else frozenset(computed)
        with self._row_lock:
            self._row_cache[key] = frozen
            while len(self._row_cache) > self._row_cache_entries:
                self._row_cache.popitem(last=False)
        return frozen

    # ------------------------------------------------------------------
    # Serving-tier hooks (scheduler integration)
    # ------------------------------------------------------------------

    def ready(self, snapshot: NetworkSnapshot) -> bool:
        """Whether answering on ``snapshot`` costs lookups, not compiles.

        The scheduler's stale-but-honest fast path routes a batch at the
        last verified snapshot when this returns ``False`` for a
        mid-churn one.
        """
        analysis = self._analysis_snapshot(snapshot)
        return self.engine.is_compiled(analysis.content_hash())

    def warm(self, snapshot: NetworkSnapshot) -> None:
        """Compile ``snapshot``'s artifacts so later queries are lookups."""
        self.engine.compile(self._analysis_snapshot(snapshot))

    def propagation_jobs(
        self,
        registration: ClientRegistration,
        query: Query,
        analysis: NetworkSnapshot,
    ) -> List[Tuple[str, int, HeaderSpace]]:
        """The forward propagations answering ``query`` would run.

        Used by :meth:`prewarm` to batch compatible reachability lookups
        across a whole scheduler batch before the per-query answering
        loop (which then hits the engine's memo table).  Only forward
        query classes enumerate jobs; inverse sweeps and history queries
        return an empty list.
        """
        if not isinstance(
            query,
            (
                ReachableDestinationsQuery,
                IsolationQuery,
                GeoLocationQuery,
                WaypointAvoidanceQuery,
                PathLengthQuery,
                BandwidthQuery,
                TransferFunctionQuery,
            ),
        ):
            return []
        return [
            (host.switch, host.port, self._outbound_space(host, query.scope))
            for host in registration.hosts
        ]

    def prewarm(
        self, pairs: Iterable[Tuple[str, Query]], snapshot: NetworkSnapshot
    ) -> int:
        """Run a batch's forward propagations in one deduplicated call.

        On the atom backend the matrix already serves these classes, so
        prewarming would only duplicate fallback work; the wildcard
        backend genuinely shares the deduplicated propagations.  Returns
        the number of jobs submitted.
        """
        if self.engine.backend == "atom":
            return 0
        analysis = self._analysis_snapshot(snapshot)
        jobs: List[Tuple[str, int, HeaderSpace]] = []
        for client, query in pairs:
            registration = self.registrations.get(client)
            if registration is None:
                continue
            jobs.extend(self.propagation_jobs(registration, query, analysis))
        if jobs:
            self.engine.analyze_batch(analysis, jobs)
        return len(jobs)

    def _count_serving(self, served, query_class: str) -> bool:
        """Telemetry: record a matrix-served query or a fallback.

        Counted per host and per query class, so operators can read
        from :class:`EngineMetrics` (and the CLI ``stats`` command)
        exactly which classes the matrix serves and which still bounce
        to wildcard propagation.
        """
        self.engine.metrics.count_query_class(query_class, served is not None)
        return served is not None

    def _count_wildcard_only(self, query_class: str, registration) -> None:
        """Per-class fallback accounting for classes the matrix never
        serves (path enumeration and per-path attributes need concrete
        hop sequences, which the endpoint-level matrix does not keep)."""
        if self.engine.backend != "atom":
            return
        for _host in registration.hosts:
            self.engine.metrics.count_query_class(query_class, False)

    # ------------------------------------------------------------------
    # Query implementations
    # ------------------------------------------------------------------

    def _outbound_result(
        self, analysis: NetworkSnapshot, host: HostRecord, scope: TrafficScope
    ) -> ReachabilityResult:
        """One memoized propagation of this host's outbound traffic.

        Every query class that walks the client's forward reachability
        (destinations, isolation, geo, waypoint, path length, bandwidth,
        transfer function) shares this engine call — on an unchanged
        snapshot the propagation runs once, however many queries follow.
        """
        return self.engine.analyze(
            analysis, host.switch, host.port, self._outbound_space(host, scope)
        )

    def reachable_destinations(
        self,
        registration: ClientRegistration,
        snapshot: NetworkSnapshot,
        scope: TrafficScope = TrafficScope(),
    ) -> ReachableDestinationsAnswer:
        analysis = self._analysis_snapshot(snapshot)
        pair = self._atom_pair(analysis)
        endpoints: set[Endpoint] = set()
        for host in registration.hosts:
            served = (
                self._cached_rows(
                    "out",
                    analysis,
                    host,
                    scope,
                    lambda: self._matrix_outbound_endpoints(pair, host, scope),
                )
                if pair is not None
                else None
            )
            if pair is not None and self._count_serving(
                served, "reachable_destinations"
            ):
                endpoints.update(served)
                continue
            result = self._outbound_result(analysis, host, scope)
            endpoints.update(self._endpoints_from_result(result))
        return ReachableDestinationsAnswer(
            endpoints=tuple(sorted(endpoints, key=lambda e: (e.switch, e.port)))
        )

    def reaching_sources(
        self,
        registration: ClientRegistration,
        snapshot: NetworkSnapshot,
        scope: TrafficScope = TrafficScope(),
        destination_host: str = "",
    ) -> ReachingSourcesAnswer:
        analysis = self._analysis_snapshot(snapshot)
        endpoints: set[Endpoint] = set()
        hosts = [
            host
            for host in registration.hosts
            if not destination_host or host.name == destination_host
        ]
        pair = self._atom_pair(analysis)
        for host in hosts:
            served = (
                self._cached_rows(
                    "in",
                    analysis,
                    host,
                    scope,
                    lambda: self._matrix_reaching_sources(pair, host, scope),
                )
                if pair is not None
                else None
            )
            if pair is not None and self._count_serving(
                served, "reaching_sources"
            ):
                endpoints.update(served)
                continue
            sources = self.engine.sources_reaching(
                analysis, host.switch, host.port, self._inbound_space(host, scope)
            )
            for switch, port in sources:
                endpoints.add(self.resolve_endpoint(switch, port))
        return ReachingSourcesAnswer(
            endpoints=tuple(sorted(endpoints, key=lambda e: (e.switch, e.port)))
        )

    def isolation(
        self,
        registration: ClientRegistration,
        snapshot: NetworkSnapshot,
        scope: TrafficScope = TrafficScope(),
    ) -> IsolationAnswer:
        """The join-attack detector of §IV-B1.

        Outbound: endpoints my traffic can reach.  Inbound: endpoints
        whose traffic (any source address — attackers spoof) can reach
        me.  Both must be subsets of my declared access points.
        """
        declared = {
            self.resolve_endpoint(*host.access_point)
            for host in registration.hosts
        }
        outbound = set(
            self.reachable_destinations(registration, snapshot, scope).endpoints
        )
        inbound = set(
            self.reaching_sources(registration, snapshot, scope).endpoints
        )
        violations = (outbound | inbound) - declared
        ordered = tuple(sorted(violations, key=lambda e: (e.switch, e.port)))
        return IsolationAnswer(
            isolated=not violations,
            declared_endpoints=tuple(
                sorted(declared, key=lambda e: (e.switch, e.port))
            ),
            violating_endpoints=ordered,
        )

    def geo_location(
        self,
        registration: ClientRegistration,
        snapshot: NetworkSnapshot,
        scope: TrafficScope = TrafficScope(),
    ) -> GeoLocationAnswer:
        """Which regions can the client's traffic pass through (§IV-B2)."""
        analysis = self._analysis_snapshot(snapshot)
        pair = self._atom_pair(analysis)
        regions: set[str] = set()
        # Switch locations are not covered by the content hash, so geo
        # rows carry a fingerprint of them in the cache key.
        locations = (
            self._locations_key(snapshot) if pair is not None else None
        )
        for host in registration.hosts:
            served = (
                self._cached_rows(
                    "geo",
                    analysis,
                    host,
                    scope,
                    lambda: self._matrix_regions(pair, host, scope, snapshot),
                    extra=locations,
                )
                if pair is not None
                else None
            )
            if pair is not None and self._count_serving(served, "geo_location"):
                regions.update(served)
                continue
            result = self._outbound_result(analysis, host, scope)
            for switch in result.switches_traversed:
                location = snapshot.location_of(switch)
                if location is not None:
                    regions.add(location.region)
        return GeoLocationAnswer(regions=tuple(sorted(regions)))

    def waypoint_avoidance(
        self,
        registration: ClientRegistration,
        snapshot: NetworkSnapshot,
        forbidden_regions: Tuple[str, ...],
        scope: TrafficScope = TrafficScope(),
    ) -> WaypointAvoidanceAnswer:
        geo = self.geo_location(registration, snapshot, scope)
        violating = tuple(
            sorted(set(geo.regions) & set(forbidden_regions))
        )
        return WaypointAvoidanceAnswer(
            avoided=not violating, violating_regions=violating
        )

    def traversal_switches(
        self,
        registration: ClientRegistration,
        snapshot: NetworkSnapshot,
        scope: TrafficScope = TrafficScope(),
    ) -> frozenset:
        """Switches the client's outbound traffic can traverse.

        The preventive gate's path-pinning primitive: a diversion detour
        routes traffic through *new* switches while leaving endpoints
        (and possibly regions) identical, so comparing this set between
        the live and a speculative snapshot catches rerouting that the
        isolation and geo checks cannot.  Served from matrix rows on the
        atom backend (one AND per traversed switch), wildcard propagation
        otherwise.
        """
        analysis = self._analysis_snapshot(snapshot)
        pair = self._atom_pair(analysis)
        traversed: set = set()
        for host in registration.hosts:
            served = None
            if pair is not None:
                space, matrix = pair
                bits = space.encode_space(self._outbound_space(host, scope))
                row = (
                    matrix.row((host.switch, host.port))
                    if bits is not None
                    else None
                )
                if row is not None:
                    served = {
                        switch
                        for switch, traversed_bits in row.traversed.items()
                        if traversed_bits & bits
                    }
            if pair is not None and self._count_serving(
                served, "traversal_switches"
            ):
                traversed.update(served)
                continue
            result = self._outbound_result(analysis, host, scope)
            traversed.update(result.switches_traversed)
        return frozenset(traversed)

    def forwarding_loops(
        self,
        registration: ClientRegistration,
        snapshot: NetworkSnapshot,
        scope: TrafficScope = TrafficScope(),
    ) -> Tuple[Tuple[str, int], ...]:
        """Ports at which the client's outbound traffic enters a loop.

        The emulated (and any real) data plane has no TTL safety net, so
        the preventive gate refuses configurations that introduce
        forwarding loops — e.g. a mirror rule whose duplicated copy is
        routed straight back to the mirroring switch.  Loops are only
        surfaced by full propagation, so this is a wildcard-path query
        (the atom matrix terminates loops instead of reporting them).
        """
        analysis = self._analysis_snapshot(snapshot)
        self._count_wildcard_only("forwarding_loops", registration)
        points: set = set()
        for host in registration.hosts:
            result = self._outbound_result(analysis, host, scope)
            for loop in result.loops:
                points.add((loop.switch, loop.port))
        return tuple(sorted(points))

    def path_length(
        self,
        registration: ClientRegistration,
        snapshot: NetworkSnapshot,
        destination_host: str = "",
        scope: TrafficScope = TrafficScope(),
    ) -> PathLengthAnswer:
        """Route-optimality: actual worst-case hops vs topology shortest."""
        analysis = self._analysis_snapshot(snapshot)
        self._count_wildcard_only("path_length", registration)
        graph = _graph_from_wiring(snapshot)
        reports: List[PathLengthReport] = []
        for host in registration.hosts:
            result = self._outbound_result(analysis, host, scope)
            worst: Dict[Tuple[str, int], int] = {}
            for path in result.paths:
                zone = path.endpoint
                if zone.kind != "edge":
                    continue
                endpoint = self.resolve_endpoint(zone.switch, zone.port)
                if destination_host and endpoint.host != destination_host:
                    continue
                key = (zone.switch, zone.port)
                worst[key] = max(worst.get(key, 0), path.length())
            for (switch, port), actual in sorted(worst.items()):
                try:
                    optimal = (
                        nx.shortest_path_length(graph, host.switch, switch) + 1
                    )
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    optimal = actual
                reports.append(
                    PathLengthReport(
                        destination=self.resolve_endpoint(switch, port),
                        actual_hops=actual,
                        optimal_hops=optimal,
                    )
                )
        return PathLengthAnswer(reports=tuple(reports))

    def fairness(
        self,
        registration: ClientRegistration,
        snapshot: NetworkSnapshot,
        scope: TrafficScope = TrafficScope(),
    ) -> FairnessAnswer:
        """Network-neutrality check over the meter tables (§IV-C).

        Meter attribution: a metered rule belongs to the client whose
        address the match *constrains* — the sender when ``ip_src`` is
        set, otherwise the receiver when ``ip_dst`` is set.  A meter with
        neither constraint limits everyone uniformly and counts on both
        sides of the comparison (uniform limits are neutral by
        construction).
        """
        my_ips = {IPv4Address(ip) for ip in registration.host_ips}

        def constrains_mine(wanted) -> Optional[bool]:
            """None = unconstrained; else does the constraint cover me?"""
            if wanted is None:
                return None
            if isinstance(wanted, IPv4Network):
                return any(wanted.contains(addr) for addr in my_ips)
            return wanted in my_ips

        meter_rates = {
            (meter.switch, meter.meter_id): meter.band.rate_kbps
            for meter in snapshot.meters
        }
        mine: List[MeterReport] = []
        other_rates: List[int] = []
        for switch, rules in snapshot.rules.items():
            for rule in rules:
                meter_ids = [
                    action.meter_id
                    for action in rule.actions
                    if isinstance(action, MeterAction)
                ]
                if not meter_ids:
                    continue
                src_mine = constrains_mine(rule.match.ip_src)
                dst_mine = constrains_mine(rule.match.ip_dst)
                if src_mine is not None:
                    is_mine, is_other = src_mine, not src_mine
                elif dst_mine is not None:
                    is_mine, is_other = dst_mine, not dst_mine
                else:
                    is_mine = is_other = True  # uniform limit
                for meter_id in meter_ids:
                    rate = meter_rates.get((switch, meter_id))
                    if rate is None:
                        continue
                    if is_mine:
                        mine.append(
                            MeterReport(
                                switch=switch,
                                rate_kbps=rate,
                                scope_description=rule.match.describe(),
                            )
                        )
                    if is_other:
                        other_rates.append(rate)
        baseline = min(other_rates) if other_rates else None
        if not mine:
            neutral = True
        elif baseline is None:
            neutral = False  # only my traffic is rate-limited
        else:
            neutral = min(report.rate_kbps for report in mine) >= baseline
        return FairnessAnswer(
            neutral=neutral,
            meters_on_my_traffic=tuple(mine),
            baseline_rate_kbps=baseline,
        )

    def bandwidth(
        self,
        registration: ClientRegistration,
        snapshot: NetworkSnapshot,
        *,
        destination_host: str = "",
        minimum_mbps: float = 0.0,
        scope: TrafficScope = TrafficScope(),
    ) -> BandwidthAnswer:
        """Bottleneck bandwidth of the client's routes (QoS query, §IV-A).

        For every destination endpoint the client's traffic can reach,
        reports the bottleneck link capacity along the worst and best
        path the *configuration* can take (capacities come from the
        wiring plan / SLA, which RVaaS holds).  A diversion through a
        thin transit link shows up as a drop in ``min_bottleneck_mbps``
        — without revealing which links exist.
        """
        analysis = self._analysis_snapshot(snapshot)
        self._count_wildcard_only("bandwidth", registration)
        per_destination: Dict[Tuple[str, int], List[float]] = {}
        for host in registration.hosts:
            result = self._outbound_result(analysis, host, scope)
            for path in result.paths:
                zone = path.endpoint
                if zone.kind != "edge":
                    continue
                endpoint = self.resolve_endpoint(zone.switch, zone.port)
                if destination_host and endpoint.host != destination_host:
                    continue
                bottleneck = float("inf")
                for link_a, link_b in path.links():
                    capacity = snapshot.link_capacities.get(
                        frozenset((link_a, link_b))
                    )
                    if capacity is not None:
                        bottleneck = min(bottleneck, capacity)
                per_destination.setdefault(
                    (zone.switch, zone.port), []
                ).append(bottleneck)
        reports = tuple(
            BandwidthReport(
                destination=self.resolve_endpoint(switch, port),
                min_bottleneck_mbps=min(bottlenecks),
                max_bottleneck_mbps=max(bottlenecks),
            )
            for (switch, port), bottlenecks in sorted(per_destination.items())
        )
        return BandwidthAnswer(reports=reports, minimum_mbps=minimum_mbps)

    def transfer_function(
        self,
        registration: ClientRegistration,
        snapshot: NetworkSnapshot,
        scope: TrafficScope = TrafficScope(),
    ) -> TransferFunctionAnswer:
        """Endpoint-level compact transfer function of the routing service."""
        analysis = self._analysis_snapshot(snapshot)
        self._count_wildcard_only("transfer_function", registration)
        entries: List[TransferFunctionEntry] = []
        for host in registration.hosts:
            ingress = self.resolve_endpoint(*host.access_point)
            result = self._outbound_result(analysis, host, scope)
            for zone in result.edge_zones():
                entries.append(
                    TransferFunctionEntry(
                        ingress=ingress,
                        egress=self.resolve_endpoint(zone.switch, zone.port),
                        header_constraint=zone.space.describe(),
                    )
                )
        entries.sort(key=lambda e: (e.ingress.switch, e.ingress.port, e.egress.switch, e.egress.port))
        return TransferFunctionAnswer(entries=tuple(entries))

    # ------------------------------------------------------------------
    # Targets for the in-band tester
    # ------------------------------------------------------------------

    def auth_targets(
        self,
        registration: ClientRegistration,
        snapshot: NetworkSnapshot,
        scope: TrafficScope = TrafficScope(),
    ) -> Tuple[Tuple[str, int], ...]:
        """Edge ports to challenge in the Fig. 1/2 authentication round:
        every edge endpoint the client's traffic can reach."""
        answer = self.reachable_destinations(registration, snapshot, scope)
        return tuple(
            (e.switch, e.port) for e in answer.endpoints if e.port >= 0
        )


def _graph_from_wiring(snapshot: NetworkSnapshot) -> nx.Graph:
    graph = nx.Graph()
    for switch in snapshot.switch_names():
        graph.add_node(switch)
    for (a, _pa), (b, _pb) in snapshot.wiring.items():
        graph.add_edge(a, b)
    return graph
