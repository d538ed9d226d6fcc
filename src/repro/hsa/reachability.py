"""Reachability, path and loop analysis over a network transfer function.

This module implements the analyses RVaaS runs to answer client queries
(paper §IV-A2 and §IV-B): which edge ports a client's traffic can reach
(isolation), which switches/links it can traverse (geo-location), how
long its paths are (optimality), and whether forwarding loops exist.

The core routine is a depth-first propagation of header spaces with a
coverage guard: a (switch, in-port) is re-expanded only for the part of
the space not already seen there, which guarantees termination even with
forwarding loops and keeps complexity tied to the real rule interactions.

The propagation runs on an explicit worklist (not recursion), so deep
topologies cannot hit Python's recursion limit, and the on-path loop
check is an O(1) set-membership test against a visited set carried per
branch — branches that never fork share one set, so a pure chain costs
O(length), not O(length²).  The worklist is ordered to reproduce the
recursive DFS visit order exactly; the pre-rewrite recursive analyzer
survives in :mod:`repro.hsa.reference` as the differential oracle.

Whole-network sweeps (``sources_reaching``, ``detect_all_loops``) run
their independent per-ingress propagations in sorted-candidate order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hsa.headerspace import HeaderSpace
from repro.hsa.network_tf import NetworkTransferFunction, PortRef
from repro.hsa.transfer import CONTROLLER_PORT

#: One forwarding step: (switch, in_port, out_port).
Hop = Tuple[str, int, int]


@dataclass(frozen=True)
class ReachableZone:
    """An endpoint the analysed traffic can arrive at."""

    kind: str  # "edge" | "controller" | "unbound"
    switch: str
    port: int
    space: HeaderSpace

    @property
    def port_ref(self) -> PortRef:
        return (self.switch, self.port)


@dataclass(frozen=True)
class ReachablePath:
    """One concrete path from ingress to an endpoint, with surviving space."""

    hops: Tuple[Hop, ...]
    endpoint: ReachableZone

    def switches(self) -> Tuple[str, ...]:
        return tuple(hop[0] for hop in self.hops)

    def length(self) -> int:
        return len(self.hops)

    def links(self) -> Tuple[Tuple[str, str], ...]:
        """Inter-switch links traversed, as ordered (from, to) pairs."""
        pairs = []
        for (sw_a, _in_a, _out_a), (sw_b, _in_b, _out_b) in zip(
            self.hops, self.hops[1:]
        ):
            pairs.append((sw_a, sw_b))
        return tuple(pairs)


@dataclass(frozen=True)
class DropZone:
    """Header space that dies at a switch (table miss or Drop action).

    ``depth`` distinguishes ingress policy drops (0 — e.g. anti-spoofing
    guards at the access switch) from mid-path dead ends (>0 — traffic
    that was accepted and forwarded, then silently discarded: the
    structural signature of a blackhole)."""

    switch: str
    port: int
    space: HeaderSpace
    depth: int


@dataclass(frozen=True)
class LoopReport:
    """A forwarding loop: the traffic re-entered a port it already crossed."""

    switch: str
    port: int
    cycle: Tuple[Hop, ...]
    space: HeaderSpace


@dataclass
class ReachabilityResult:
    """Everything one propagation discovered."""

    zones: List[ReachableZone] = field(default_factory=list)
    paths: List[ReachablePath] = field(default_factory=list)
    loops: List[LoopReport] = field(default_factory=list)
    drops: List[DropZone] = field(default_factory=list)
    switches_traversed: set[str] = field(default_factory=set)
    links_traversed: set[frozenset[str]] = field(default_factory=set)
    expansions: int = 0  # work counter for scaling experiments
    worklist_peak: int = 0  # deepest the explicit worklist grew

    def edge_zones(self) -> List[ReachableZone]:
        return [z for z in self.zones if z.kind == "edge"]

    def edge_port_refs(self) -> frozenset[PortRef]:
        return frozenset(z.port_ref for z in self.edge_zones())

    def reaches(self, switch: str, port: int) -> bool:
        return any(
            z.switch == switch and z.port == port for z in self.edge_zones()
        )


class ReachabilityAnalyzer:
    """Propagates header spaces over a :class:`NetworkTransferFunction`."""

    #: Worklist item tags.  ``_EXPAND`` frames propagate a space into an
    #: ingress; ``_ZONE`` frames record an endpoint.  Interleaving both on
    #: one stack reproduces the recursive DFS result order exactly: items
    #: are pushed in reverse emission order, so an expansion's whole
    #: subtree is drained before its next sibling emission is recorded.
    _ZONE = 0
    _EXPAND = 1

    def __init__(
        self,
        network_tf: NetworkTransferFunction,
        *,
        max_depth: int = 64,
        collect_paths: bool = True,
        collect_drops: bool = False,
    ) -> None:
        self.network_tf = network_tf
        self.max_depth = max_depth
        self.collect_paths = collect_paths
        self.collect_drops = collect_drops

    # ------------------------------------------------------------------
    # Forward reachability
    # ------------------------------------------------------------------

    def analyze(
        self, start_switch: str, start_port: int, space: HeaderSpace
    ) -> ReachabilityResult:
        """Propagate ``space`` injected at (start_switch, start_port)."""
        result = ReachabilityResult()
        seen: Dict[PortRef, HeaderSpace] = {}
        # Frame: (_EXPAND, switch, in_port, space, path, visited, depth).
        # ``visited`` is the set of ingresses on the current path; each
        # frame owns its set exclusively, so single-child chains mutate
        # in place and only forks pay for a copy.
        stack: List[tuple] = [
            (self._EXPAND, start_switch, start_port, space, (), set(), 0)
        ]
        peak = 1
        max_depth = self.max_depth
        collect_drops = self.collect_drops
        network_tf = self.network_tf
        role_of = network_tf.role_of
        while stack:
            frame = stack.pop()
            if frame[0] == self._ZONE:
                _tag, kind, switch, port, out_space, hops = frame
                self._record_zone(result, kind, switch, port, out_space, hops)
                continue
            _tag, switch, in_port, space, path, visited, depth = frame
            if space.is_empty() or depth > max_depth:
                continue
            key = (switch, in_port)
            # Loop check: did this traffic already cross this ingress on
            # the current path?
            if key in visited:
                result.loops.append(
                    LoopReport(
                        switch=switch, port=in_port, cycle=path, space=space
                    )
                )
                continue
            covered = seen.get(key)
            if covered is not None:
                space = space.subtract_many(covered.wildcards)
                if space.is_empty():
                    continue
                # After the subtraction the surviving pieces are disjoint
                # from every covered piece, so no subset relation exists
                # in either direction — plain concatenation equals the
                # pruning union without its O(n²) subset scan.
                seen[key] = HeaderSpace._from_pieces(
                    covered.wildcards + space.wildcards
                )
            else:
                seen[key] = space
            result.expansions += 1
            result.switches_traversed.add(switch)
            if collect_drops:
                tf = network_tf.transfer_functions.get(switch)
                if tf is None:
                    continue
                emissions, dropped = tf.apply_with_drops(in_port, space)
                if not dropped.is_empty():
                    result.drops.append(
                        DropZone(
                            switch=switch, port=in_port, space=dropped, depth=depth
                        )
                    )
            else:
                emissions = network_tf.apply_switch(switch, in_port, space)
            children: List[tuple] = []
            n_links = 0
            for out_port, out_space in emissions:
                if out_space.is_empty():
                    continue
                hop: Hop = (switch, in_port, out_port)
                if out_port == CONTROLLER_PORT:
                    children.append(
                        (self._ZONE, "controller", switch, out_port, out_space, path + (hop,))
                    )
                    continue
                role = role_of(switch, out_port)
                if role.kind == "edge":
                    children.append(
                        (self._ZONE, "edge", switch, out_port, out_space, path + (hop,))
                    )
                elif role.kind == "link" and role.peer is not None:
                    peer_switch, peer_port = role.peer
                    result.links_traversed.add(frozenset((switch, peer_switch)))
                    n_links += 1
                    children.append(
                        (
                            self._EXPAND,
                            peer_switch,
                            peer_port,
                            out_space,
                            path + (hop,),
                            None,  # visited set assigned below
                            depth + 1,
                        )
                    )
                else:
                    children.append(
                        (self._ZONE, "unbound", switch, out_port, out_space, path + (hop,))
                    )
            if n_links:
                # Hand this frame's (now unused) visited set to the first
                # link child; every further fork gets its own copy.
                visited.add(key)
                handed_off = False
                for index, child in enumerate(children):
                    if child[0] != self._EXPAND:
                        continue
                    branch_visited = visited if not handed_off else set(visited)
                    handed_off = True
                    children[index] = child[:5] + (branch_visited, child[6])
            stack.extend(reversed(children))
            if len(stack) > peak:
                peak = len(stack)
        result.worklist_peak = peak
        return result

    def _record_zone(
        self,
        result: ReachabilityResult,
        kind: str,
        switch: str,
        port: int,
        space: HeaderSpace,
        hops: Tuple[Hop, ...],
    ) -> None:
        zone = ReachableZone(kind=kind, switch=switch, port=port, space=space)
        result.zones.append(zone)
        if self.collect_paths:
            result.paths.append(ReachablePath(hops=hops, endpoint=zone))

    # ------------------------------------------------------------------
    # Inverse queries
    # ------------------------------------------------------------------

    def sources_reaching(
        self,
        target_switch: str,
        target_port: int,
        space: HeaderSpace,
        *,
        candidate_ports: Optional[tuple[PortRef, ...]] = None,
        analyze_fn=None,
    ) -> Dict[PortRef, HeaderSpace]:
        """Which edge ports can inject traffic that arrives at the target?

        Computed by forward propagation from every candidate edge port —
        exact, and at the network sizes of this reproduction cheaper than
        maintaining inverted transfer functions.  ``analyze_fn`` lets the
        verification engine substitute its memoized per-ingress
        propagation, so repeated inverse queries on the same snapshot
        reuse one forward pass per candidate port.  The sources map is
        assembled in candidate order.
        """
        candidates = [
            ref
            for ref in (candidate_ports or self.network_tf.all_edge_ports())
            if ref != (target_switch, target_port)
        ]
        analyze = analyze_fn or self.analyze
        sources: Dict[PortRef, HeaderSpace] = {}
        for switch, port in candidates:
            arriving = HeaderSpace.empty()
            for zone in analyze(switch, port, space).edge_zones():
                if zone.port_ref == (target_switch, target_port):
                    arriving = arriving.union(zone.space)
            if not arriving.is_empty():
                sources[(switch, port)] = arriving
        return sources

    # ------------------------------------------------------------------
    # Whole-network sweeps
    # ------------------------------------------------------------------

    def detect_all_loops(self, space: HeaderSpace) -> List[LoopReport]:
        """Check every edge ingress for forwarding loops on ``space``.

        The reports are concatenated in edge-port order.
        """
        loops: List[LoopReport] = []
        for switch, port in self.network_tf.all_edge_ports():
            loops.extend(self.analyze(switch, port, space).loops)
        return loops


# ----------------------------------------------------------------------
# All-ingress matrix precomputation (atom backend)
# ----------------------------------------------------------------------


def build_reachability_matrix(
    network_tf,
    atom_space,
    *,
    max_depth: int = 64,
    atom_network=None,
):
    """Propagate the full header space from every edge ingress, bitwise.

    One :class:`~repro.hsa.atoms.MatrixRow` per edge port, computed in
    the atom domain in edge-port order.  Callers that keep a predecessor
    state for matrix repair pass a pre-built ``atom_network`` so the
    compiled pipelines survive the build and can seed the next repair.
    """
    from repro.hsa.atoms import AtomNetwork, ReachabilityMatrix

    if atom_network is None:
        atom_network = AtomNetwork(network_tf, atom_space, max_depth=max_depth)
    ingresses = network_tf.all_edge_ports()
    rows = {ref: atom_network.propagate(*ref) for ref in ingresses}
    return ReachabilityMatrix(atom_space, rows)


@dataclass
class MatrixRepairStats:
    """What one :func:`repair_reachability_matrix` call did."""

    rows_reused: int = 0  # rows carried over (renumbered, not re-propagated)
    rows_repaired: int = 0  # rows re-propagated from their ingress
    atoms_split: int = 0  # old cells the new universe refined
    space_changed: bool = False  # the constraint set itself changed


def repair_reachability_matrix(
    previous_matrix,
    network_tf,
    atom_space,
    touched_switches,
    *,
    previous_network=None,
    max_depth: int = 64,
):
    """Repair a predecessor matrix in place of a full rebuild.

    The dependency argument: a row's propagation expanded only at the
    switches in its ``traversed`` set, so if none of those switches'
    transfer entries changed, re-propagating it would walk the identical
    rule sequence and record the identical arrivals — the row is carried
    over, with its bitsets renumbered through the
    :class:`~repro.hsa.atoms.AtomRemap` cell-renumbering table when the
    delta grew or shrank the constraint set.  Only rows whose traversed
    set intersects ``touched_switches`` (plus ingresses the predecessor
    never saw) are re-propagated, exactly like a cold build.

    Raises :class:`~repro.hsa.atoms.RemapInexact` when a reused row's
    bitsets are not exactly representable in the new universe (a retired
    constant merged cells a live set still distinguishes) — the caller
    falls back to :func:`build_reachability_matrix`.

    Returns ``(matrix, atom_network, stats)``; ``atom_network`` reuses
    the predecessor's compiled pipelines for untouched switches and
    seeds the *next* repair.
    """
    from repro.hsa.atoms import AtomNetwork, AtomRemap, ReachabilityMatrix

    remap = AtomRemap(previous_matrix.space, atom_space)
    touched = frozenset(touched_switches)
    ingresses = network_tf.all_edge_ports()
    dirty: List[PortRef] = []
    for ref in ingresses:
        row = previous_matrix.row(ref)
        if row is None or not touched.isdisjoint(row.traversed):
            dirty.append(ref)
    # Renumber the reused rows *before* paying any propagation, so an
    # inexact remap falls back without wasted work.
    stats = MatrixRepairStats(
        atoms_split=remap.splits, space_changed=not remap.identity
    )
    rows: Dict[PortRef, "object"] = {}
    dirty_set = frozenset(dirty)
    for ref in ingresses:
        if ref in dirty_set:
            rows[ref] = None  # filled by the propagation below
        else:
            rows[ref] = remap.remap_row(previous_matrix.row(ref))
            stats.rows_reused += 1
    # Patch the network from its predecessor's compiled pipelines.
    atom_network = AtomNetwork(
        network_tf,
        atom_space,
        max_depth=max_depth,
        reuse_from=previous_network,
        touched=touched_switches,
    )
    for ref in dirty:
        rows[ref] = atom_network.propagate(*ref)
        stats.rows_repaired += 1
    return ReachabilityMatrix(atom_space, rows), atom_network, stats
