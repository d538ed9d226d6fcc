"""Multi-provider federation: recursive queries across domains (§IV-C a).

"Queries may not be limited to a single provider but may recursively
span consecutive networks along a route.  In this case, queries need to
be propagated between the RVaaS servers of the respective providers."

Model: one physical internetwork partitioned into provider domains, each
with its own RVaaS controller attached to (and monitoring) only its own
switches.  A federated query starts at the client's home domain; whenever
the analysed traffic exits through an inter-domain link, the surviving
header space is handed to the peer domain's RVaaS server (one federated
message), which continues the analysis on *its* snapshot.  Endpoint-level
answers compose; internal paths never cross the trust boundary.

Per-domain analysis routes through each domain's
:class:`~repro.core.engine.VerificationEngine` (content-hash cached,
delta-repaired), never through an ad-hoc
``ReachabilityAnalyzer(snapshot.network_tf())`` rebuild.  On the atom
backend the federation composes per-provider
:class:`~repro.hsa.atoms.ReachabilityMatrix` rows at inter-domain links
("matrix" mode): each domain compiles once, exports boundary-port rows
via :meth:`~repro.core.engine.VerificationEngine.atom_rows`, and a
cross-domain hop is an atom-bitset intersection plus one decode/encode
at the trust boundary — with per-item fallback to engine-cached wildcard
propagation whenever a handed-over space is not a union of the peer's
atoms, so answers are exact in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.engine import VerificationEngine
from repro.core.protocol import ClientRegistration
from repro.core.queries import Endpoint, TrafficScope
from repro.core.service import RVaaSController
from repro.core.snapshot import NetworkSnapshot
from repro.dataplane.topology import Topology
from repro.hsa.headerspace import HeaderSpace
from repro.hsa.network_tf import PortRef
from repro.hsa.reachability import ReachabilityAnalyzer
from repro.hsa.wildcard import Wildcard

#: Query execution modes (see :meth:`RVaaSFederation.federated_query`).
#: "matrix" composes per-domain reachability-matrix rows at boundary
#: ports (atom backend; falls back per item); "serial" propagates
#: wildcard header spaces per hop through the engine's memoised
#: analyzer; "recompile" is the pre-engine legacy path that rebuilds
#: the domain NTF on every work item — kept as the E22 baseline.
FEDERATION_MODES = ("matrix", "serial", "recompile")


@dataclass
class ProviderDomain:
    """One provider: a switch set plus the service answering for it.

    Two flavours compose in the same federation: a full
    :class:`~repro.core.service.RVaaSController` (testbed deployments —
    the domain's engine, snapshot and endpoint resolution come from the
    service), or a lightweight static domain built with
    :meth:`from_snapshot` (AS-scale workloads, where instantiating
    hundreds of live controllers would drown the experiment in
    simulation cost rather than verification cost).
    """

    name: str
    switches: frozenset[str]
    service: Optional[RVaaSController] = None
    #: static domains: returns the (global or domain) snapshot to
    #: restrict; ignored when ``service`` is set
    snapshot_fn: Optional[Callable[[], NetworkSnapshot]] = None
    #: the domain's verification engine; defaults to the service's
    #: engine, or a fresh one for static domains (lazily)
    engine: Optional[VerificationEngine] = None
    #: maps a (switch, port) edge zone to a labelled endpoint; defaults
    #: to the service verifier's resolver
    resolve_fn: Optional[Callable[[str, int], Endpoint]] = None

    def owns(self, switch: str) -> bool:
        return switch in self.switches

    @classmethod
    def from_snapshot(
        cls,
        name: str,
        switches: frozenset[str],
        snapshot: NetworkSnapshot,
        *,
        engine: Optional[VerificationEngine] = None,
        resolve_fn: Optional[Callable[[str, int], Endpoint]] = None,
    ) -> "ProviderDomain":
        """A service-less domain verifying a fixed snapshot."""
        return cls(
            name=name,
            switches=frozenset(switches),
            snapshot_fn=lambda: snapshot,
            engine=engine,
            resolve_fn=resolve_fn,
        )

    def current_snapshot(self) -> NetworkSnapshot:
        if self.service is not None:
            return self.service.snapshot()
        if self.snapshot_fn is not None:
            return self.snapshot_fn()
        raise ValueError(f"domain {self.name} has neither service nor snapshot")

    def verification_engine(self) -> VerificationEngine:
        if self.engine is None:
            if self.service is not None:
                self.engine = self.service.engine
            else:
                self.engine = VerificationEngine()
        return self.engine

    def resolve_endpoint(self, switch: str, port: int) -> Endpoint:
        if self.resolve_fn is not None:
            return self.resolve_fn(switch, port)
        if self.service is not None:
            return self.service.verifier.resolve_endpoint(switch, port)
        return Endpoint(switch=switch, port=port)


@dataclass(frozen=True)
class FederatedAnswer:
    """The common envelope of every federated query.

    One propagation discovers both the endpoint answer and the regions
    crossed, so :meth:`RVaaSFederation.reachable_destinations` and
    :meth:`RVaaSFederation.regions_traversed` return this same envelope
    with identical accounting.  ``truncated`` follows the
    ``FreshnessReport`` honesty discipline: a depth-limited exploration
    must be distinguishable from a complete one, so work items dropped
    at ``max_depth`` are counted, never silently discarded.
    """

    endpoints: Tuple[Endpoint, ...]
    regions: Tuple[str, ...]
    domains_involved: Tuple[str, ...]
    federated_messages: int
    max_chain_depth: int
    truncated: bool = False
    dropped_items: int = 0
    mode: str = "serial"


@dataclass
class _WorkItem:
    domain: str
    switch: str
    port: int
    space: HeaderSpace
    depth: int


@dataclass
class _DomainContext:
    """Per-domain compiled view, cached across work items and queries.

    Keyed on the restricted-snapshot content hash: a domain consulted by
    fifty work items restricts and hashes its snapshot once, and the
    engine's content-addressed caches make every repeat propagation a
    lookup.  ``source`` pins the provider snapshot object the context
    was derived from, so the steady-state validity check is an identity
    comparison, not a re-restriction.
    """

    domain: ProviderDomain
    source: NetworkSnapshot
    snapshot: NetworkSnapshot
    content: str
    engine: VerificationEngine
    #: the query-seed tuple last pushed into this engine (matrix mode)
    seeded: Tuple[Wildcard, ...] = ()


def restrict_snapshot(
    snapshot: NetworkSnapshot, switches: frozenset[str]
) -> NetworkSnapshot:
    """A domain-local view: only this domain's rules and internal wiring.

    Inter-domain links disappear from the wiring, so the HSA propagation
    naturally terminates at boundary ports (zones of kind "unbound" —
    never "edge": edge ports are host attachments declared by the
    snapshot, and the restriction only ever filters that set), which the
    federation then hands to the peer domain.  Per-switch rule hashes
    are shared with the source snapshot (the rule tuples are the same
    objects), so hashing the restricted view costs O(domain) even when
    the source hashes were monitor-seeded.
    """
    return NetworkSnapshot(
        version=snapshot.version,
        taken_at=snapshot.taken_at,
        rules={s: r for s, r in snapshot.rules.items() if s in switches},
        meters=tuple(m for m in snapshot.meters if m.switch in switches),
        wiring={
            here: there
            for here, there in snapshot.wiring.items()
            if here[0] in switches and there[0] in switches
        },
        edge_ports={
            s: ports for s, ports in snapshot.edge_ports.items() if s in switches
        },
        switch_ports={
            s: ports for s, ports in snapshot.switch_ports.items() if s in switches
        },
        locations={
            s: loc for s, loc in snapshot.locations.items() if s in switches
        },
        link_capacities={
            pair: capacity
            for pair, capacity in snapshot.link_capacities.items()
            if pair <= switches
        },
        _switch_hashes={
            s: snapshot.switch_content_hash(s)
            for s in snapshot.rules
            if s in switches
        },
    )


class RVaaSFederation:
    """Coordinates recursive queries across provider domains."""

    def __init__(
        self,
        domains: List[ProviderDomain],
        topology: Topology,
        *,
        max_depth: int = 16,
    ) -> None:
        self.domains = {domain.name: domain for domain in domains}
        self.topology = topology
        self.max_depth = max_depth
        self._domain_of_switch: Dict[str, str] = {}
        for domain in domains:
            for switch in domain.switches:
                if switch in self._domain_of_switch:
                    raise ValueError(f"switch {switch} assigned to two domains")
                self._domain_of_switch[switch] = domain.name
        self._global_wiring = topology.wiring()
        self._contexts: Dict[str, _DomainContext] = {}

    def domain_of(self, switch: str) -> ProviderDomain:
        return self.domains[self._domain_of_switch[switch]]

    def boundary_peer(self, switch: str, port: int) -> Optional[PortRef]:
        """The far end of an inter-domain link, if (switch, port) is one."""
        peer = self._global_wiring.get((switch, port))
        if peer is None:
            return None
        if self._domain_of_switch[peer[0]] == self._domain_of_switch[switch]:
            return None
        return peer

    # ------------------------------------------------------------------
    # Per-domain compiled artifacts
    # ------------------------------------------------------------------

    def _domain_context(self, name: str) -> _DomainContext:
        domain = self.domains[name]
        source = domain.current_snapshot()
        ctx = self._contexts.get(name)
        if ctx is not None and ctx.source is source:
            return ctx
        restricted = restrict_snapshot(source, domain.switches)
        content = restricted.content_hash()
        if ctx is not None and ctx.content == content:
            # Same configuration under a new snapshot object (e.g. the
            # monitor re-froze an unchanged mirror): keep the compiled
            # context, just re-pin the identity check.
            ctx.source = source
            return ctx
        ctx = _DomainContext(
            domain=domain,
            source=source,
            snapshot=restricted,
            content=content,
            engine=domain.verification_engine(),
        )
        self._contexts[name] = ctx
        return ctx

    def prewarm(self) -> None:
        """Compile every domain's restricted snapshot eagerly.

        Each domain's per-switch compiles and matrix rows are paid here
        instead of lazily inside the first federated query's work loop.
        """
        for name in sorted(self.domains):
            ctx = self._domain_context(name)
            ctx.engine.compile(ctx.snapshot)

    def close(self) -> None:
        """Nothing to release: domain engines hold no executors.

        Kept so callers that scope a federation's lifetime (the
        benchmark harness among them) need not special-case it.
        """

    # ------------------------------------------------------------------
    # The federated query core (all modes, all query classes)
    # ------------------------------------------------------------------

    def federated_query(
        self,
        registration: ClientRegistration,
        *,
        scope: TrafficScope = TrafficScope(),
        mode: Optional[str] = None,
    ) -> FederatedAnswer:
        """Propagate the client's traffic across every domain it crosses.

        ``mode=None`` picks "matrix" (which degrades gracefully to the
        engine-cached serial path per item on the wildcard backend or
        when a boundary space refuses to encode).  All modes return the
        same endpoint and region sets; they differ only in cost.
        """
        if mode is None:
            mode = "matrix"
        if mode not in FEDERATION_MODES:
            raise ValueError(f"unknown federation mode: {mode!r}")

        endpoints: set[Endpoint] = set()
        regions: set[str] = set()
        involved: set[str] = set()
        #: wildcard-currency coverage per ingress (serial/recompile hops)
        seen_spaces: Dict[PortRef, HeaderSpace] = {}
        #: atom-currency coverage per ingress (matrix hops); the two
        #: ledgers record what was actually processed in each currency —
        #: a mixed sequence at one ingress may redo overlapping work but
        #: never miss any (answers are sets)
        seen_bits: Dict[PortRef, int] = {}
        messages = 0
        max_depth = 0
        dropped = 0

        seeds = tuple(
            Wildcard.from_fields(
                ip_src=host.ip, vlan_id=0, **scope.constraints()
            )
            for host in registration.hosts
        )

        work: List[_WorkItem] = []
        for host in registration.hosts:
            fields = {"ip_src": host.ip, "vlan_id": 0}
            fields.update(scope.constraints())
            work.append(
                _WorkItem(
                    domain=self._domain_of_switch[host.switch],
                    switch=host.switch,
                    port=host.port,
                    space=HeaderSpace.single(Wildcard.from_fields(**fields)),
                    depth=0,
                )
            )

        while work:
            item = work.pop()
            if item.depth > self.max_depth:
                dropped += 1
                continue
            ctx = self._domain_context(item.domain)
            step = None
            if mode == "matrix":
                step = self._matrix_step(
                    ctx, item, seeds, endpoints, regions, involved,
                    seen_bits, work,
                )
            if step is None:
                # serial/recompile modes, and the matrix mode's per-item
                # fallback (wildcard backend, atom overflow, or a handed
                # space that is not a union of this domain's atoms)
                step = self._serial_step(
                    ctx, item, mode, endpoints, regions, involved,
                    seen_spaces, work,
                )
            if step is not None and step[0] == "ok":
                max_depth = max(max_depth, item.depth)
                messages += step[1]

        return FederatedAnswer(
            endpoints=tuple(sorted(endpoints, key=lambda e: (e.switch, e.port))),
            regions=tuple(sorted(regions)),
            domains_involved=tuple(sorted(involved)),
            federated_messages=messages,
            max_chain_depth=max_depth,
            truncated=dropped > 0,
            dropped_items=dropped,
            mode=mode,
        )

    def _serial_step(
        self,
        ctx: _DomainContext,
        item: _WorkItem,
        mode: str,
        endpoints: set,
        regions: set,
        involved: set,
        seen_spaces: Dict[PortRef, HeaderSpace],
        work: List[_WorkItem],
    ) -> Tuple:
        """One wildcard-propagation hop.

        Returns ``("ok", messages_sent)`` when the item carried new
        traffic, ``("covered",)`` when an earlier item at the same
        ingress already propagated all of it.
        """
        ref = (item.switch, item.port)
        covered = seen_spaces.get(ref)
        space = item.space if covered is None else item.space.subtract(covered)
        if space.is_empty():
            return ("covered",)
        seen_spaces[ref] = space if covered is None else covered.union(space)
        involved.add(ctx.domain.name)
        if mode == "recompile":
            # The legacy cache-bypassing path: restrict + rebuild the
            # NTF + a fresh analyzer for every single work item.  Kept
            # only as the E22 baseline and exercised by its bench.
            snapshot = restrict_snapshot(
                ctx.domain.current_snapshot(), ctx.domain.switches
            )
            result = ReachabilityAnalyzer(snapshot.network_tf()).analyze(
                item.switch, item.port, space
            )
        else:
            result = ctx.engine.analyze(
                ctx.snapshot, item.switch, item.port, space
            )
        messages = 0
        for switch in result.switches_traversed:
            location = ctx.snapshot.location_of(switch)
            if location is not None:
                regions.add(location.region)
        for zone in result.zones:
            if zone.kind == "edge":
                endpoints.add(ctx.domain.resolve_endpoint(zone.switch, zone.port))
            elif zone.kind == "unbound":
                peer = self.boundary_peer(zone.switch, zone.port)
                if peer is None:
                    continue
                messages += 1  # one RVaaS->RVaaS federated request
                work.append(
                    _WorkItem(
                        domain=self._domain_of_switch[peer[0]],
                        switch=peer[0],
                        port=peer[1],
                        space=zone.space,
                        depth=item.depth + 1,
                    )
                )
        return ("ok", messages)

    def _matrix_step(
        self,
        ctx: _DomainContext,
        item: _WorkItem,
        seeds: Tuple[Wildcard, ...],
        endpoints: set,
        regions: set,
        involved: set,
        seen_bits: Dict[PortRef, int],
        work: List[_WorkItem],
    ) -> Optional[Tuple]:
        """One matrix-composed hop.

        The whole cross-domain hop is bitset algebra against this
        domain's precomputed :class:`ReachabilityMatrix` row for the
        ingress — plus exactly one decode at each boundary exit, which
        is the only place header spaces must exist in wildcard form
        (they are the inter-provider wire format).  Returns ``None`` to
        fall back to :meth:`_serial_step`: wildcard backend, atom-limit
        overflow, or an incoming space that is not a union of this
        domain's atoms (encode would approximate, and federation never
        approximates).
        """
        engine = ctx.engine
        if engine.backend != "atom":
            return None
        if ctx.seeded != seeds:
            # Make the query's injected spaces exactly encodable in this
            # domain's universe (no-op once the constraints are known).
            engine.seed_atoms(seeds)
            ctx.seeded = seeds
        ref = (item.switch, item.port)
        artifacts = engine.atom_rows(ctx.snapshot, (ref,))
        if artifacts is None:
            return None
        space, matrix = artifacts
        bits = space.encode_space(item.space)
        if bits is None:
            return None
        row = matrix.row(ref)
        if row is None:
            return None
        covered = seen_bits.get(ref, 0)
        bits &= ~covered
        if bits == 0:
            return ("covered",)
        seen_bits[ref] = covered | bits
        involved.add(ctx.domain.name)
        for switch, touched in row.traversed.items():
            if touched & bits:
                location = ctx.snapshot.location_of(switch)
                if location is not None:
                    regions.add(location.region)
        messages = 0
        for zone, zone_bits in row.reach.items():
            if not zone_bits & bits:
                continue  # the row covers the full space; not our traffic
            kind, switch, port = zone
            if kind == "edge":
                endpoints.add(ctx.domain.resolve_endpoint(switch, port))
            elif kind == "unbound":
                peer = self.boundary_peer(switch, port)
                if peer is None:
                    continue
                arrived = matrix.arrived_space(ref, zone, bits)
                if not arrived:
                    continue
                messages += 1  # one RVaaS->RVaaS federated request
                work.append(
                    _WorkItem(
                        domain=self._domain_of_switch[peer[0]],
                        switch=peer[0],
                        port=peer[1],
                        space=space.decode(arrived),
                        depth=item.depth + 1,
                    )
                )
        return ("ok", messages)

    # ------------------------------------------------------------------
    # Query classes (one envelope, identical accounting)
    # ------------------------------------------------------------------

    def reachable_destinations(
        self,
        registration: ClientRegistration,
        *,
        scope: TrafficScope = TrafficScope(),
        mode: Optional[str] = None,
    ) -> FederatedAnswer:
        """Which endpoints (in any domain) can the client's traffic reach?"""
        return self.federated_query(registration, scope=scope, mode=mode)

    def regions_traversed(
        self,
        registration: ClientRegistration,
        *,
        scope: TrafficScope = TrafficScope(),
        mode: Optional[str] = None,
    ) -> FederatedAnswer:
        """Union of regions crossed in every involved domain.

        Same envelope (and accounting) as
        :meth:`reachable_destinations` — read ``answer.regions``.
        """
        return self.federated_query(registration, scope=scope, mode=mode)
