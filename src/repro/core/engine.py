"""The shared verification engine: incremental compilation + memoized analysis.

The paper argues RVaaS is feasible because verification has "low
resource requirements" (§IV-A).  The seed reproduction recompiled the
entire HSA :class:`~repro.hsa.network_tf.NetworkTransferFunction` from
scratch for every snapshot and rebuilt a fresh
:class:`~repro.hsa.reachability.ReachabilityAnalyzer` inside every query
method.  This module is the Veriflow-style incremental replacement, and
the single compilation path shared by every consumer (logical verifier,
emulation backend, flapping detector, dead-end auditor):

* **Per-switch compiled-artifact caching** —
  :class:`~repro.hsa.transfer.SwitchTransferFunction` objects are keyed
  by a per-switch rule-content hash
  (:meth:`~repro.core.snapshot.NetworkSnapshot.switch_content_hash`) and
  structurally shared across snapshot versions: a snapshot that changed
  k switches recompiles exactly k transfer functions.
* **Delta-driven invalidation** — the
  :class:`~repro.core.monitor.ConfigurationMonitor` emits
  :class:`SnapshotDelta` objects describing added/removed rules, meter
  and wiring changes; :meth:`VerificationEngine.apply_delta` uses them
  to evict exactly the superseded per-switch entries.
* **Memoized reachability** — one propagation per (snapshot content
  hash, ingress port, header space) serves every query class that needs
  it, so an Isolation query immediately after a ReachableDestinations
  query on the same snapshot costs a dictionary lookup.

All caches are content-addressed, so correctness never depends on
deltas arriving: a missed delta only costs an extra recompilation.

Every compile, sweep and matrix build runs serially, in sorted order;
caches are lock-guarded, and the fast-path kernel's counters (rules
skipped by the classifier index, worklist depth) surface in
:class:`EngineMetrics`.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.core.snapshot import NetworkSnapshot
from repro.hsa.atoms import (
    GLOBAL_ATOM_TABLE,
    AtomNetwork,
    AtomSpace,
    ReachabilityMatrix,
    RemapInexact,
    constraint_seed_hash,
)
from repro.hsa.headerspace import HeaderSpace
from repro.hsa.network_tf import NetworkTransferFunction, PortRef
from repro.hsa.reachability import (
    ReachabilityAnalyzer,
    ReachabilityResult,
    build_reachability_matrix,
    repair_reachability_matrix,
)
from repro.hsa.transfer import SwitchTransferFunction, compile_switch_tf
from repro.hsa.wildcard import Wildcard

#: Environment override for the default header-set backend; ``atom``
#: turns on the atomic-predicate engine for every engine constructed
#: without an explicit ``backend=``, which is how the full test suite
#: runs against both calculi.
BACKEND_ENV_VAR = "RVAAS_HSA_BACKEND"


@dataclass(frozen=True)
class SnapshotDelta:
    """What changed between two consecutive monitor snapshots.

    ``added_rules`` / ``removed_rules`` are (switch, rule identity)
    signature pairs — the same currency as
    :meth:`~repro.core.snapshot.NetworkSnapshot.rule_signatures` and the
    flapping detector.  ``changed_switches`` is the union of switches
    with any rule churn; meter and wiring changes are flagged separately
    because they invalidate different artifacts.
    """

    since_version: int
    version: int
    added_rules: frozenset = frozenset()
    removed_rules: frozenset = frozenset()
    changed_switches: frozenset = frozenset()
    meters_changed: bool = False
    wiring_changed: bool = False

    def is_empty(self) -> bool:
        return not (
            self.added_rules
            or self.removed_rules
            or self.changed_switches
            or self.meters_changed
            or self.wiring_changed
        )

    def rule_churn(self) -> int:
        return len(self.added_rules) + len(self.removed_rules)


@dataclass
class EngineMetrics:
    """Hit/miss/recompile accounting, read by E5/E10/E11 benchmarks."""

    switch_tf_hits: int = 0
    switch_tf_misses: int = 0  # == per-switch recompilations
    network_tf_hits: int = 0
    network_tf_builds: int = 0
    incremental_builds: int = 0  # NTF builds that shared the role map
    reach_hits: int = 0
    reach_misses: int = 0
    artifact_hits: int = 0
    artifact_misses: int = 0
    deltas_applied: int = 0
    delta_invalidations: int = 0
    content_hashes: int = 0
    # Fast-path kernel telemetry (E17): lifetime totals across the
    # engine's compiled transfer functions, sampled after each
    # propagation miss.
    kernel_rules_checked: int = 0
    kernel_rules_skipped: int = 0  # rules the classifier index pruned
    kernel_early_exits: int = 0
    kernel_index_hits: int = 0
    worklist_peak: int = 0  # deepest worklist of any propagation
    # Atomic-predicate backend telemetry (E19).
    atom_space_builds: int = 0  # atom universes compiled (interner misses)
    atom_intern_hits: int = 0  # artifact-cache hits for (space, matrix)
    atom_matrix_builds: int = 0  # all-ingress matrix precomputations
    atom_count: int = 0  # atoms in the most recent universe
    atom_matrix_expansions: int = 0  # worklist expansions of last build
    atom_served_queries: int = 0  # queries answered from the matrix
    atom_fallbacks: int = 0  # queries bounced to the wildcard path
    atom_overflows: int = 0  # universes rejected for exceeding the limit
    # Matrix repair telemetry (E20): delta-driven maintenance of the
    # all-ingress matrix instead of full recompilation.
    matrix_repairs: int = 0  # matrices produced by repairing a predecessor
    rows_repaired: int = 0  # rows re-propagated during repairs
    rows_reused: int = 0  # rows carried over (renumbered) during repairs
    atoms_split: int = 0  # old cells refined by the new universe, summed
    matrix_repair_fallbacks: int = 0  # repairs abandoned for a full rebuild
    # Batch query API telemetry (E21, serving tier): multi-ingress
    # propagation requests deduped in one call.
    batched_analyses: int = 0  # analyze_batch invocations
    batch_jobs: int = 0  # jobs submitted across all batches
    batch_unique_jobs: int = 0  # jobs remaining after in-batch dedup
    # Federation telemetry (E22): matrix rows computed on demand for
    # ingress ports outside the edge-port set (inter-domain boundary
    # ports a peer provider hands traffic to).
    atom_boundary_rows: int = 0
    # Per-query-class serving breakdown (which classes the matrix serves
    # and which still fall back to wildcard propagation); dict-valued,
    # keyed by query-class name.
    atom_served_by_class: Dict[str, int] = field(default_factory=dict)
    atom_fallbacks_by_class: Dict[str, int] = field(default_factory=dict)

    @property
    def recompilations(self) -> int:
        return self.switch_tf_misses

    def count_query_class(self, query_class: str, served: bool) -> None:
        """Record one atom-backend query as matrix-served or fallback."""
        if served:
            self.atom_served_queries += 1
            bucket = self.atom_served_by_class
        else:
            self.atom_fallbacks += 1
            bucket = self.atom_fallbacks_by_class
        bucket[query_class] = bucket.get(query_class, 0) + 1

    def snapshot_counters(self) -> Dict[str, int]:
        counters = {}
        for f in fields(self):
            value = getattr(self, f.name)
            # Dict-valued breakdowns are copied so a "before" snapshot
            # is not mutated by later counting.
            counters[f.name] = dict(value) if isinstance(value, dict) else value
        return counters


@dataclass
class _AtomState:
    """Predecessor state for delta-driven matrix repair.

    One per cached ``("atoms", seed_key, content)`` artifact: everything
    :func:`~repro.hsa.reachability.repair_reachability_matrix` needs to
    produce the successor matrix without a full recompilation.
    ``switch_sigs`` is the per-switch (rule-content hash, ports)
    signature map — the touched-switch set of a delta is computed by
    diffing signatures, never by trusting the delta's own contents, so a
    missed or wrong delta can only cost extra re-propagation.
    """

    content: str
    network_tf: NetworkTransferFunction
    switch_sigs: Dict[str, tuple]
    space: AtomSpace
    matrix: ReachabilityMatrix
    atom_network: AtomNetwork


class VerificationEngine:
    """Content-addressed compilation and analysis cache.

    One engine instance is shared by everything that verifies against
    snapshots of the same network: the :class:`LogicalVerifier` (all
    query classes), the :class:`RVaaSController`'s watch/audit paths,
    the :class:`EmulationVerifier` (shadow networks, via
    :meth:`artifact`), and :class:`SnapshotHistory` (content hashing).
    """

    #: Every compile and sweep runs serially; these constants stay because
    #: the benchmark harness (``perfbench/workloads.py``) reports them.
    workers = 1
    pool_mode = "serial"

    def __init__(
        self,
        *,
        max_switch_entries: int = 4096,
        max_network_entries: int = 16,
        max_reach_entries: int = 1024,
        max_artifact_entries: int = 8,
        backend: Optional[str] = None,
        matrix_repair: bool = True,
        repair_max_fraction: float = 0.5,
    ) -> None:
        if backend is None:
            backend = os.environ.get(BACKEND_ENV_VAR, "wildcard")
        if backend not in ("wildcard", "atom"):
            raise ValueError(f"unknown HSA backend: {backend!r}")
        #: "wildcard" — every query runs wildcard-set propagation;
        #: "atom" — compile() additionally builds the atomic-predicate
        #: universe + all-ingress reachability matrix, and the verifier
        #: serves eligible queries from it (falling back per query).
        self.backend = backend
        #: repair the predecessor matrix on rule churn instead of
        #: rebuilding it (atom backend only); off = always cold-build,
        #: which is the E20 baseline and a CI lever
        self.matrix_repair = matrix_repair
        #: safety valve: a delta touching more than this fraction of the
        #: network's switches falls back to a full rebuild (repairing
        #: nearly everything costs more than a clean build)
        self.repair_max_fraction = repair_max_fraction
        self.metrics = EngineMetrics()
        self._max_switch_entries = max_switch_entries
        self._max_network_entries = max_network_entries
        self._max_reach_entries = max_reach_entries
        self._max_artifact_entries = max_artifact_entries
        #: guards every cache OrderedDict against concurrent callers
        self._lock = threading.RLock()
        #: (switch, rule hash, ports) -> compiled transfer function
        self._switch_tfs: "OrderedDict[tuple, SwitchTransferFunction]" = OrderedDict()
        #: snapshot content hash -> assembled network transfer function
        self._network_tfs: "OrderedDict[str, NetworkTransferFunction]" = OrderedDict()
        #: (content hash, collect_drops) -> analyzer over the cached NTF
        self._analyzers: "OrderedDict[Tuple[str, bool], ReachabilityAnalyzer]" = (
            OrderedDict()
        )
        #: (content hash, ingress, space fingerprint, drops) -> result
        self._reach: "OrderedDict[tuple, ReachabilityResult]" = OrderedDict()
        #: (kind, content hash) -> arbitrary derived artifact
        self._artifacts: "OrderedDict[tuple, object]" = OrderedDict()
        #: last assembled NTF, for the O(k) incremental sibling path
        self._last_ntf: Optional[NetworkTransferFunction] = None
        #: extra predicates the atom universe must refine (host
        #: addresses, query scopes, the interception punt space) so that
        #: the verifier's query spaces encode exactly; the seed digest is
        #: part of the artifact key, so seeding is never a staleness bug
        self._atom_seeds: Tuple[Wildcard, ...] = ()
        self._atom_seed_key: str = constraint_seed_hash(())
        #: (seed key, content hash) -> predecessor state for matrix
        #: repair; MRU-ordered, bounded like the artifact cache
        self._atom_states: "OrderedDict[Tuple[str, str], _AtomState]" = (
            OrderedDict()
        )
        #: content hashes exempt from eviction.  The preventive gate pins
        #: the live snapshot's content while it compiles a burst of
        #: speculative variants, so adversarial FlowMod floods cannot
        #: evict the serving artifacts and force a cold rebuild.
        self._pinned: set = set()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def switch_transfer_function(
        self, snapshot: NetworkSnapshot, switch: str
    ) -> SwitchTransferFunction:
        """The compiled pipeline of one switch, cached by rule content."""
        rules = snapshot.rules.get(switch, ())
        ports = tuple(snapshot.switch_ports.get(switch, ()))
        key = (switch, snapshot.switch_content_hash(switch), ports)
        with self._lock:
            cached = self._switch_tfs.get(key)
            if cached is not None:
                self.metrics.switch_tf_hits += 1
                self._switch_tfs.move_to_end(key)
                return cached
            self.metrics.switch_tf_misses += 1
        # Compile outside the lock; a rare duplicate compile of the same
        # key is benign (content-addressed, last write wins).
        compiled = compile_switch_tf(switch, rules, ports)
        with self._lock:
            self._switch_tfs[key] = compiled
            self._evict(self._switch_tfs, self._max_switch_entries)
        return compiled

    def compile(self, snapshot: NetworkSnapshot) -> NetworkTransferFunction:
        """The network transfer function, assembled from cached pieces."""
        content = self.content_hash(snapshot)
        with self._lock:
            cached = self._network_tfs.get(content)
            if cached is not None:
                self.metrics.network_tf_hits += 1
                self._network_tfs.move_to_end(content)
        if cached is not None:
            if self.backend == "atom":
                # The NTF survived but the (space, matrix) artifact may
                # have been evicted or the seed set may have grown.
                self._ensure_atoms(cached, content, snapshot)
            return cached
        with self._lock:
            self.metrics.network_tf_builds += 1
        tfs = {
            switch: self.switch_transfer_function(snapshot, switch)
            for switch in sorted(snapshot.rules)
        }
        previous = self._last_ntf
        if (
            previous is not None
            and previous.wiring == dict(snapshot.wiring)
            and previous.edge_ports.keys() == snapshot.edge_ports.keys()
            and all(
                previous.edge_ports[s] == frozenset(p)
                for s, p in snapshot.edge_ports.items()
            )
            and set(previous.transfer_functions) == set(tfs)
        ):
            updates = {
                name: tf
                for name, tf in tfs.items()
                if previous.transfer_functions.get(name) is not tf
            }
            network_tf = previous.with_updated_switches(updates)
            self.metrics.incremental_builds += 1
        else:
            network_tf = NetworkTransferFunction(
                tfs, snapshot.wiring, snapshot.edge_ports
            )
        with self._lock:
            self._network_tfs[content] = network_tf
            self._last_ntf = network_tf
            self._evict(self._network_tfs, self._max_network_entries)
        if self.backend == "atom":
            self._ensure_atoms(network_tf, content, snapshot)
        return network_tf

    def close(self) -> None:
        """Nothing to release: the engine holds no executors.

        Kept so callers that scope an engine's lifetime (the benchmark
        harness among them) need not special-case it.
        """

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def analyzer(
        self, snapshot: NetworkSnapshot, *, collect_drops: bool = False
    ) -> ReachabilityAnalyzer:
        key = (self.content_hash(snapshot), collect_drops)
        with self._lock:
            analyzer = self._analyzers.get(key)
            if analyzer is not None:
                self._analyzers.move_to_end(key)
                return analyzer
        analyzer = ReachabilityAnalyzer(
            self.compile(snapshot), collect_drops=collect_drops
        )
        with self._lock:
            self._analyzers[key] = analyzer
            self._evict(self._analyzers, self._max_network_entries)
        return analyzer

    def analyze(
        self,
        snapshot: NetworkSnapshot,
        switch: str,
        port: int,
        space: HeaderSpace,
        *,
        collect_drops: bool = False,
    ) -> ReachabilityResult:
        """Memoized forward propagation from one ingress port.

        The returned :class:`ReachabilityResult` is shared between
        callers — treat it as read-only.
        """
        key = (
            self.content_hash(snapshot),
            switch,
            port,
            space.fingerprint(),
            collect_drops,
        )
        with self._lock:
            cached = self._reach.get(key)
            if cached is not None:
                self.metrics.reach_hits += 1
                self._reach.move_to_end(key)
                return cached
            self.metrics.reach_misses += 1
        analyzer = self.analyzer(snapshot, collect_drops=collect_drops)
        result = analyzer.analyze(switch, port, space)
        with self._lock:
            self._reach[key] = result
            self._evict(self._reach, self._max_reach_entries)
            if result.worklist_peak > self.metrics.worklist_peak:
                self.metrics.worklist_peak = result.worklist_peak
            self._sample_kernel_stats(analyzer.network_tf)
        return result

    def analyze_batch(
        self,
        snapshot: NetworkSnapshot,
        jobs: Iterable[Tuple[str, int, HeaderSpace]],
        *,
        collect_drops: bool = False,
    ) -> list:
        """Memoized propagation for many ingress jobs in one call.

        ``jobs`` is a sequence of ``(switch, port, space)`` triples; the
        result list is positionally aligned with it.  Duplicate jobs
        (same ingress and space fingerprint) are computed once — the
        serving tier's "batch compatible matrix-row lookups" primitive.
        Results land in the shared memo table, so a batch is exactly as
        correct (and as cached) as the equivalent loop of
        :meth:`analyze` calls.
        """
        jobs = list(jobs)
        self.metrics.batched_analyses += 1
        self.metrics.batch_jobs += len(jobs)
        unique: "OrderedDict[tuple, Tuple[str, int, HeaderSpace]]" = OrderedDict()
        for switch, port, space in jobs:
            key = (switch, port, space.fingerprint())
            if key not in unique:
                unique[key] = (switch, port, space)
        self.metrics.batch_unique_jobs += len(unique)
        by_key = {
            key: self.analyze(
                snapshot, switch, port, space, collect_drops=collect_drops
            )
            for key, (switch, port, space) in unique.items()
        }
        return [
            by_key[(switch, port, space.fingerprint())]
            for switch, port, space in jobs
        ]

    def sources_reaching(
        self,
        snapshot: NetworkSnapshot,
        target_switch: str,
        target_port: int,
        space: HeaderSpace,
        *,
        candidate_ports: Optional[Tuple[PortRef, ...]] = None,
    ) -> Dict[PortRef, HeaderSpace]:
        """Inverse reachability, with each candidate propagation memoized."""
        return self.analyzer(snapshot).sources_reaching(
            target_switch,
            target_port,
            space,
            candidate_ports=candidate_ports,
            analyze_fn=lambda sw, p, sp: self.analyze(snapshot, sw, p, sp),
        )

    def _sample_kernel_stats(self, network_tf: NetworkTransferFunction) -> None:
        """Refresh kernel telemetry from the most recently analysed NTF.

        Switch TF counters are lifetime totals for the shared compiled
        artifacts, so the sample is monotone for a single network under
        churn; after swapping to an unrelated network the counters
        restart from that network's totals.
        """
        totals = network_tf.kernel_stats()
        self.metrics.kernel_rules_checked = totals.get("rules_checked", 0)
        self.metrics.kernel_rules_skipped = totals.get("rules_skipped", 0)
        self.metrics.kernel_early_exits = totals.get("early_exits", 0)
        self.metrics.kernel_index_hits = totals.get("index_hits", 0)

    # ------------------------------------------------------------------
    # Atomic-predicate backend (E19)
    # ------------------------------------------------------------------

    def seed_atoms(self, wildcards: Iterable[Wildcard]) -> None:
        """Register extra predicates the atom universe must refine.

        The verifier seeds the spaces its queries are built from (host
        addresses, traffic-scope constraints, the interception punt
        space); anything seeded encodes exactly and is served from the
        matrix, anything else falls back per query.  Seeding changes the
        seed digest, which is part of the artifact key — so a grown seed
        set can never produce a stale cache hit, only a rebuild.
        """
        merged = set(self._atom_seeds)
        merged.update(wildcards)
        if len(merged) == len(self._atom_seeds):
            return
        with self._lock:
            self._atom_seeds = tuple(
                sorted(merged, key=lambda w: (w.value, w.mask))
            )
            self._atom_seed_key = constraint_seed_hash(self._atom_seeds)

    def atom_artifacts(
        self, snapshot: NetworkSnapshot
    ) -> Optional[Tuple[AtomSpace, ReachabilityMatrix]]:
        """(atom space, all-ingress matrix) for a snapshot, or None.

        ``None`` when the backend is ``wildcard`` or the universe
        overflowed the atom limit — callers then use the wildcard path.
        Compilation (and hence the eager matrix build) happens via
        :meth:`compile`, so the first query on a new snapshot version
        pays the build and every later query is a lookup.
        """
        if self.backend != "atom":
            return None
        content = self.content_hash(snapshot)
        self.compile(snapshot)  # ensures the artifact exists
        key = ("atoms", self._atom_seed_key, content)
        with self._lock:
            built = self._artifacts.get(key)
        if built is None or built[0] is None:
            return None
        return built  # type: ignore[return-value]

    def atom_rows(
        self, snapshot: NetworkSnapshot, ingresses: Iterable[PortRef]
    ) -> Optional[Tuple[AtomSpace, ReachabilityMatrix]]:
        """Matrix rows for arbitrary ingress ports, or None.

        The all-ingress matrix precomputes rows for *edge* ports only;
        a federated query enters a domain at an inter-domain boundary
        port, which a domain-restricted snapshot classifies as
        "unbound" (the cross-domain wire is not in its wiring plan).
        This is the boundary-port interface: any requested ingress
        without a row is propagated through the cached
        :class:`~repro.hsa.atoms.AtomNetwork` and the row is added to
        the cached matrix, so each (domain snapshot, boundary port)
        pays at most one propagation.  Returns ``None`` exactly when
        :meth:`atom_artifacts` does (wildcard backend / atom overflow).

        Rows added here are reachable via
        :meth:`~repro.hsa.atoms.ReachabilityMatrix.row` but do not join
        :meth:`~repro.hsa.atoms.ReachabilityMatrix.ingresses`, so
        column scans over edge ingresses (reaching-sources) are
        unaffected.
        """
        artifacts = self.atom_artifacts(snapshot)
        if artifacts is None:
            return None
        space, matrix = artifacts
        missing = [ref for ref in ingresses if matrix.row(ref) is None]
        if not missing:
            return artifacts
        content = self.content_hash(snapshot)
        state_key = (self._atom_seed_key, content)
        with self._lock:
            state = self._atom_states.get(state_key)
        if state is not None and state.matrix is matrix:
            atom_network = state.atom_network
        else:
            # Predecessor state evicted while the artifact survived:
            # rebuild the atom network once (content-addressed pieces,
            # so only the pipeline wrappers are recompiled) and re-admit
            # it so later boundary rows are lookups again.
            network_tf = self.compile(snapshot)
            atom_network = AtomNetwork(network_tf, space)
            state = _AtomState(
                content=content,
                network_tf=network_tf,
                switch_sigs={
                    name: (
                        snapshot.switch_content_hash(name),
                        tuple(snapshot.switch_ports.get(name, ())),
                    )
                    for name in snapshot.rules
                },
                space=space,
                matrix=matrix,
                atom_network=atom_network,
            )
            with self._lock:
                self._atom_states[state_key] = state
                self._evict(self._atom_states, self._max_artifact_entries)
        for ref in missing:
            row = atom_network.propagate(ref[0], ref[1])
            with self._lock:
                # A concurrent query may have raced us to the same row;
                # first write wins and both are equivalent.
                matrix._rows.setdefault(ref, row)
                self.metrics.atom_boundary_rows += 1
        return space, matrix

    def _ensure_atoms(
        self,
        network_tf: NetworkTransferFunction,
        content: str,
        snapshot: NetworkSnapshot,
    ) -> None:
        """Build, repair, or re-hit the atom universe + matrix.

        Stored in the generic artifact cache under a key that includes
        the seed digest, so PR-1 delta invalidation (wiring changes
        clear artifacts; rule churn changes the content hash) applies
        unchanged.  Overflowed universes are cached as ``(None, None)``
        so the limit check is paid once per snapshot, not per query.

        On a miss with :attr:`matrix_repair` enabled, the engine first
        looks for a predecessor ``("atoms", seed_key, old_hash)`` state
        whose wiring matches and whose per-switch signature diff stays
        under :attr:`repair_max_fraction` — if found, the new matrix is
        produced by :func:`repair_reachability_matrix` (re-propagating
        only rows that traverse a touched switch) instead of a full
        rebuild; an inexact cell renumbering falls back cleanly.
        """
        key = ("atoms", self._atom_seed_key, content)
        state_key = (self._atom_seed_key, content)
        with self._lock:
            cached = self._artifacts.get(key)
            if cached is not None:
                self.metrics.atom_intern_hits += 1
                self._artifacts.move_to_end(key)
                if state_key in self._atom_states:
                    self._atom_states.move_to_end(state_key)
                return
        constraints = list(network_tf.atom_constraints())
        constraints.extend(self._atom_seeds)
        space = GLOBAL_ATOM_TABLE.space_for(constraints)
        state: Optional[_AtomState] = None
        if space is None:
            self.metrics.atom_overflows += 1
            built: Tuple[Optional[AtomSpace], Optional[ReachabilityMatrix]] = (
                None,
                None,
            )
        else:
            self.metrics.atom_space_builds += 1
            self.metrics.atom_count = space.n_atoms
            switch_sigs = {
                name: (
                    snapshot.switch_content_hash(name),
                    tuple(snapshot.switch_ports.get(name, ())),
                )
                for name in snapshot.rules
            }
            matrix: Optional[ReachabilityMatrix] = None
            candidate = self._repair_candidate(network_tf, switch_sigs)
            if candidate is not None:
                predecessor, touched = candidate
                try:
                    matrix, atom_network, stats = repair_reachability_matrix(
                        predecessor.matrix,
                        network_tf,
                        space,
                        touched,
                        previous_network=predecessor.atom_network,
                    )
                except RemapInexact:
                    self.metrics.matrix_repair_fallbacks += 1
                    matrix = None
                else:
                    self.metrics.matrix_repairs += 1
                    self.metrics.rows_repaired += stats.rows_repaired
                    self.metrics.rows_reused += stats.rows_reused
                    self.metrics.atoms_split += stats.atoms_split
            elif self.matrix_repair and self._atom_states:
                # A predecessor existed but was ineligible (wiring
                # changed or the delta touched too much of the network).
                self.metrics.matrix_repair_fallbacks += 1
            if matrix is None:
                atom_network = AtomNetwork(network_tf, space)
                matrix = build_reachability_matrix(
                    network_tf, space, atom_network=atom_network
                )
                self.metrics.atom_matrix_builds += 1
            self.metrics.atom_matrix_expansions = matrix.expansions
            built = (space, matrix)
            state = _AtomState(
                content=content,
                network_tf=network_tf,
                switch_sigs=switch_sigs,
                space=space,
                matrix=matrix,
                atom_network=atom_network,
            )
        with self._lock:
            self._artifacts[key] = built
            self._evict(self._artifacts, self._max_artifact_entries)
            if state is not None:
                self._atom_states[state_key] = state
                self._evict(self._atom_states, self._max_artifact_entries)

    def _repair_candidate(
        self,
        network_tf: NetworkTransferFunction,
        switch_sigs: Dict[str, tuple],
    ) -> Optional[Tuple[_AtomState, frozenset]]:
        """The best predecessor to repair from, with its touched set.

        Candidates are scanned most-recent first among states built
        under the current seed key; a candidate qualifies when its
        wiring plan and edge-port sets are unchanged (repair never
        handles topology surgery) and the per-switch signature diff
        stays within :attr:`repair_max_fraction` of the network.
        """
        if not self.matrix_repair:
            return None
        with self._lock:
            states = [
                state
                for (seed_key, _content), state in reversed(
                    self._atom_states.items()
                )
                if seed_key == self._atom_seed_key
            ]
        total = max(len(network_tf.transfer_functions), 1)
        for state in states:
            previous = state.network_tf
            if (
                previous.wiring != network_tf.wiring
                or previous.edge_ports != network_tf.edge_ports
            ):
                continue
            names = set(switch_sigs) | set(state.switch_sigs)
            touched = frozenset(
                name
                for name in names
                if state.switch_sigs.get(name) != switch_sigs.get(name)
            )
            if len(touched) > self.repair_max_fraction * total:
                continue
            return state, touched
        return None

    # ------------------------------------------------------------------
    # Generic derived artifacts (emulation backend, etc.)
    # ------------------------------------------------------------------

    def artifact(
        self,
        kind: str,
        snapshot: NetworkSnapshot,
        build: Callable[[NetworkSnapshot], object],
    ):
        """A content-addressed cache for non-HSA snapshot compilations.

        The emulation backend stores its
        :class:`~repro.core.emulation.ShadowNetwork` replicas here, so
        HSA and emulation share one invalidation discipline.
        """
        key = (kind, self.content_hash(snapshot))
        with self._lock:
            cached = self._artifacts.get(key)
            if cached is not None:
                self.metrics.artifact_hits += 1
                self._artifacts.move_to_end(key)
                return cached
            self.metrics.artifact_misses += 1
        built = build(snapshot)
        with self._lock:
            self._artifacts[key] = built
            self._evict(self._artifacts, self._max_artifact_entries)
        return built

    # ------------------------------------------------------------------
    # Identity & invalidation
    # ------------------------------------------------------------------

    def content_hash(self, snapshot: NetworkSnapshot) -> str:
        self.metrics.content_hashes += 1
        return snapshot.content_hash()

    def is_compiled(self, content: str) -> bool:
        """Whether serving ``content`` costs only lookups, no compile.

        The scheduler's stale-but-honest fast path asks this before
        routing a batch at a mid-churn snapshot: ``True`` means the
        network transfer function (and, on the atom backend, the
        (space, matrix) artifact) is already cached, so serving fresh
        is cheap; ``False`` means the first query would pay a compile.
        """
        with self._lock:
            if content not in self._network_tfs:
                return False
            if self.backend != "atom":
                return True
            return ("atoms", self._atom_seed_key, content) in self._artifacts

    def apply_delta(self, delta: SnapshotDelta) -> int:
        """Evict cache entries the delta proves stale.

        Per-switch compiled artifacts for switches with rule churn are
        superseded (the content-addressed key guarantees a changed
        switch misses anyway; eviction keeps the cache from accumulating
        every historical version under flapping attacks).  Returns the
        number of entries invalidated.
        """
        self.metrics.deltas_applied += 1
        if delta.is_empty():
            return 0
        evicted = 0
        with self._lock:
            if delta.changed_switches:
                stale = [
                    key
                    for key in self._switch_tfs
                    if key[0] in delta.changed_switches
                ]
                for key in stale:
                    del self._switch_tfs[key]
                    evicted += 1
            if delta.wiring_changed:
                # The shared role map is wrong for every cached NTF, and
                # matrix repair never handles topology surgery.
                evicted += len(self._network_tfs) + len(self._reach)
                self._network_tfs.clear()
                self._analyzers.clear()
                self._reach.clear()
                self._artifacts.clear()
                self._atom_states.clear()
                self._last_ntf = None
            self.metrics.delta_invalidations += evicted
        return evicted

    def clear(self) -> None:
        """Drop every cached artifact (counters are preserved)."""
        with self._lock:
            self._switch_tfs.clear()
            self._network_tfs.clear()
            self._analyzers.clear()
            self._reach.clear()
            self._artifacts.clear()
            self._atom_states.clear()
            self._last_ntf = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def pin_content(self, content: str) -> None:
        """Exempt every artifact of ``content`` from cache eviction."""
        with self._lock:
            self._pinned.add(content)

    def unpin_content(self, content: str) -> None:
        with self._lock:
            self._pinned.discard(content)

    def _key_pinned(self, key: object) -> bool:
        if isinstance(key, str):
            return key in self._pinned
        if isinstance(key, tuple):
            return any(
                isinstance(part, str) and part in self._pinned for part in key
            )
        return False

    def _evict(self, cache: OrderedDict, limit: int) -> None:
        if len(cache) <= limit:
            return
        if not self._pinned:
            while len(cache) > limit:
                cache.popitem(last=False)
            return
        # Oldest-first, skipping pinned keys; if only pinned entries
        # remain the cache is allowed to overshoot (bounded by the pin
        # set, which the gate keeps at one live content hash).
        for key in list(cache):
            if len(cache) <= limit:
                break
            if self._key_pinned(key):
                continue
            del cache[key]
