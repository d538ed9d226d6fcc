"""Per-switch transfer functions derived from flow-table snapshots.

A transfer function T maps (in_port, header space) to a set of
(out_port, header space) pairs, with exact priority shadowing: the space
handed to rule *r* is the input minus the matches of all applicable
higher-priority rules.  GotoTable instructions compose tables; SetField /
Push/PopVlan become header-space rewrites.

Transfer functions are built from :class:`SnapshotRule` records — plain
data extracted from flow-monitor updates or flow-stats dumps — never from
live switch objects, because RVaaS reasons over its *snapshot* of the
configuration (paper §IV-A1), not over privileged access to the switch.

Fast path (benchmark E17): rules are served through per-(table, in-port)
:class:`_RuleClassifier` indexes.  A classifier pre-filters the in-port
constraint once, and pre-partitions rules by a *guard field* — the header
field exactly constrained by the most rules (e.g. ``ip_dst`` in routing
tables).  A propagated space that pins the guard field consults only the
matching bucket plus the guard-free residue, skipping provably-disjoint
rules without intersecting against them.  Skipping is sound for the
shadowing subtraction too: a rule disjoint from the input space
contributes an empty segment and an identity subtraction.  The naive
linear-scan kernel is preserved in :mod:`repro.hsa.reference` as the
differential-testing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.hsa.headerspace import HeaderSpace
from repro.hsa.layout import FIELD_LAYOUT, field_slice
from repro.hsa.wildcard import Wildcard
from repro.netlib.addresses import IPv4Address, MacAddress
from repro.netlib.constants import VLAN_NONE
from repro.openflow.actions import (
    Action,
    Drop,
    Flood,
    GotoTable,
    Meter,
    Output,
    PopVlan,
    PushVlan,
    SetField,
    ToController,
)
from repro.openflow.match import Match

#: Symbolic output meaning "punted to the control plane".
CONTROLLER_PORT = -1


@dataclass(frozen=True)
class SnapshotRule:
    """One flow entry as recorded in a configuration snapshot."""

    table_id: int
    priority: int
    match: Match
    actions: Tuple[Action, ...]
    cookie: int = 0

    def identity(self) -> tuple:
        return (self.table_id, self.priority, self.match, self.actions)

    def identity_digest(self) -> bytes:
        """SHA-256 of :meth:`identity`, cached on the instance.

        Rule objects are structurally shared across snapshot versions, so
        caching here makes rehashing a changed switch cost O(new rules)
        instead of re-rendering every identity repr each version.
        """
        cached = self.__dict__.get("_identity_digest")
        if cached is None:
            import hashlib

            cached = hashlib.sha256(repr(self.identity()).encode()).digest()
            object.__setattr__(self, "_identity_digest", cached)
        return cached


@dataclass(frozen=True)
class TransferRule:
    """A compiled rule: match wildcard plus port constraint plus actions.

    ``ops`` is the pre-compiled form of ``actions`` for the fast apply
    loop — ``(clear, bits, ports, goto_table)`` meaning "rewrite every
    piece to ``(value & ~clear) | bits``, emit to ``ports``, then
    optionally continue in ``goto_table``".  ``None`` marks action lists
    the compact form cannot express (Flood, rewrite-after-emit); those
    fall back to the interpreting :meth:`SwitchTransferFunction._apply_actions`.
    """

    table_id: int
    priority: int
    in_port: Optional[int]
    match_wc: Wildcard
    actions: Tuple[Action, ...]
    source: SnapshotRule
    ops: Optional[Tuple[int, int, Tuple[int, ...], Optional[int]]] = None


def compile_actions(
    actions: Sequence[Action],
) -> Optional[Tuple[int, int, Tuple[int, ...], Optional[int]]]:
    """Pre-compile an action list into the compact ``ops`` form.

    Folds every run of SetField / PushVlan / PopVlan into a single
    (clear-mask, value-bits) integer pair — sequential rewrites of the
    same field collapse to the last writer — and collects the emission
    ports.  Returns ``None`` for shapes the compact form cannot express
    (Flood's in-port dependence, rewrites after an emission), which keep
    the general interpreter path.
    """
    clear = 0
    bits = 0
    ports: List[int] = []
    goto: Optional[int] = None
    for action in actions:
        if isinstance(action, Meter):
            continue
        if isinstance(action, (SetField, PushVlan, PopVlan)):
            if ports:
                return None  # rewrite after emit: segment forks, interpret
            if isinstance(action, SetField):
                slice_ = field_slice(action.field)
                raw = action.value
                raw = (
                    raw.value
                    if isinstance(raw, (MacAddress, IPv4Address))
                    else int(raw)
                )
            else:
                slice_ = field_slice("vlan_id")
                raw = (
                    action.vlan_id if isinstance(action, PushVlan) else VLAN_NONE
                )
            fmask = slice_.mask
            clear |= fmask
            bits = (bits & ~fmask) | slice_.pack(raw)
        elif isinstance(action, Output):
            ports.append(action.port)
        elif isinstance(action, ToController):
            ports.append(CONTROLLER_PORT)
        elif isinstance(action, GotoTable):
            goto = action.table_id
            break  # goto terminates the action list
        elif isinstance(action, Drop):
            break  # drop terminates; prior emissions stand
        else:
            return None  # Flood or unknown: interpret
    return (clear, bits, tuple(ports), goto)


#: One output of a transfer application.
Emission = Tuple[int, HeaderSpace]


class KernelStats:
    """Cumulative fast-path counters for one transfer function.

    Telemetry only — they never affect results.
    """

    __slots__ = (
        "rules_checked",
        "rules_skipped",
        "early_exits",
        "index_hits",
        "index_misses",
    )

    def __init__(self) -> None:
        self.rules_checked = 0  # rules the apply loop actually visited
        self.rules_skipped = 0  # rules the classifier proved disjoint
        self.early_exits = 0  # subsumption early exits taken
        self.index_hits = 0  # applications served from a guard bucket
        self.index_misses = 0  # applications that fell back to full scan

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def add(self, other: "KernelStats") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class _RuleClassifier:
    """The indexed view of one table as seen from one ingress port.

    Holds the in-port-filtered rule list in priority order, plus a guard
    index: rules exactly constraining the guard field are bucketed by
    their guard value; the residue (rules leaving any guard bit free) is
    checked on every application.  Merged per-value candidate lists are
    memoised because propagation revisits the same few guard values.

    Every candidate list carries a parallel tuple of *shadow flags*:
    flag[i] is False when no later rule in the list overlaps rule i's
    match, which makes the priority-shadowing subtraction after rule i a
    provable no-op the apply loop can skip.  Real tables are mostly
    pairwise-disjoint (distinct destinations), so this removes the
    dominant subtraction cost.  Restricting the overlap test to the
    candidate list is sound: rules outside it are disjoint from the
    applied space, so their segments are empty whether or not the
    subtraction happened.
    """

    __slots__ = ("rules", "flags", "guard_mask", "_exact", "_rest", "_merged")

    #: Build a guard index only when it can bucket at least this many rules.
    MIN_GUARDED = 2

    def __init__(self, rules: Sequence[TransferRule]) -> None:
        self.rules: Tuple[TransferRule, ...] = tuple(rules)
        # Full-list shadow flags are O(n²) to derive and only needed when
        # a space escapes the guard index, so they are built on demand.
        self.flags: Optional[Tuple[bool, ...]] = None
        self.guard_mask = 0
        self._exact: Dict[int, List[Tuple[int, TransferRule]]] = {}
        self._rest: List[Tuple[int, TransferRule]] = []
        self._merged: Dict[
            int, Tuple[Tuple[TransferRule, ...], Tuple[bool, ...]]
        ] = {}
        if len(self.rules) < self.MIN_GUARDED:
            return
        # The guard is the first (in layout order) field exactly
        # constrained by the most rules — the discriminating field.
        best_count = 0
        for slice_ in FIELD_LAYOUT.values():
            fmask = slice_.mask
            count = sum(
                1 for r in self.rules if r.match_wc.mask & fmask == fmask
            )
            if count > best_count:
                best_count = count
                self.guard_mask = fmask
        if best_count < self.MIN_GUARDED:
            self.guard_mask = 0
            return
        gmask = self.guard_mask
        for pos, rule in enumerate(self.rules):
            wc = rule.match_wc
            if wc.mask & gmask == gmask:
                self._exact.setdefault(wc.value & gmask, []).append((pos, rule))
            else:
                self._rest.append((pos, rule))

    def select(
        self, space: HeaderSpace, stats: KernelStats
    ) -> Tuple[Tuple[TransferRule, ...], Tuple[bool, ...]]:
        """(candidate rules, shadow flags) for ``space``, in priority order."""
        gmask = self.guard_mask
        pieces = space.wildcards
        if not gmask or not pieces:
            stats.index_misses += 1
            return self.rules, self._full_flags()
        # The bucket applies only when every piece pins the whole guard
        # field to one shared value; otherwise any rule could intersect.
        guard_value = pieces[0].value & gmask
        for piece in pieces:
            if piece.mask & gmask != gmask or piece.value & gmask != guard_value:
                stats.index_misses += 1
                return self.rules, self._full_flags()
        stats.index_hits += 1
        merged = self._merged.get(guard_value)
        if merged is None:
            rules = self._merge(self._exact.get(guard_value, []), self._rest)
            merged = (rules, _shadow_flags(rules))
            self._merged[guard_value] = merged
        return merged

    def _full_flags(self) -> Tuple[bool, ...]:
        flags = self.flags
        if flags is None:
            flags = self.flags = _shadow_flags(self.rules)
        return flags

    @staticmethod
    def _merge(
        bucket: List[Tuple[int, TransferRule]],
        rest: List[Tuple[int, TransferRule]],
    ) -> Tuple[TransferRule, ...]:
        """Two position-sorted runs merged back into priority order."""
        out: List[TransferRule] = []
        i = j = 0
        while i < len(bucket) and j < len(rest):
            if bucket[i][0] < rest[j][0]:
                out.append(bucket[i][1])
                i += 1
            else:
                out.append(rest[j][1])
                j += 1
        out.extend(rule for _pos, rule in bucket[i:])
        out.extend(rule for _pos, rule in rest[j:])
        return tuple(out)


class SwitchTransferFunction:
    """The HSA view of one switch's configuration."""

    def __init__(
        self,
        switch_name: str,
        rules: Sequence[SnapshotRule],
        ports: Sequence[int],
        *,
        n_tables: int = 2,
    ) -> None:
        self.switch_name = switch_name
        self.ports = tuple(sorted(ports))
        self._tables: Dict[int, List[TransferRule]] = {
            table_id: [] for table_id in range(n_tables)
        }
        # OpenFlow replacement semantics: a later rule with the same
        # (table, priority, match) overwrites the earlier one, exactly as
        # FlowTable.add does on the switch — otherwise HSA and the data
        # plane disagree on which actions such a flow entry carries.
        deduped: Dict[tuple, SnapshotRule] = {}
        for rule in rules:
            key = (rule.table_id, rule.priority, rule.match)
            # pop-then-insert so a replacement also moves to the back,
            # matching the fresh entry id the switch assigns it
            deduped.pop(key, None)
            deduped[key] = rule
        for rule in deduped.values():
            actions = tuple(rule.actions)
            compiled = TransferRule(
                table_id=rule.table_id,
                priority=rule.priority,
                in_port=rule.match.in_port,
                match_wc=Wildcard.from_match(rule.match),
                actions=actions,
                source=rule,
                ops=compile_actions(actions),
            )
            self._tables.setdefault(rule.table_id, []).append(compiled)
        for table_rules in self._tables.values():
            # Priority desc; the sort is stable, so equal-priority rules
            # keep their given order — the same first-installed-wins
            # tie-break the switch pipeline applies via entry ids.
            table_rules.sort(key=lambda r: -r.priority)
        self.stats = KernelStats()
        #: (table_id, in_port) -> lazily built classifier index
        self._classifiers: Dict[Tuple[int, int], _RuleClassifier] = {}
        #: table_id -> classifier shared by every in_port (built when no
        #: rule in the table constrains in_port — e.g. routing tables)
        self._portless: Dict[int, _RuleClassifier] = {}

    def _classifier(self, table_id: int, in_port: int) -> _RuleClassifier:
        key = (table_id, in_port)
        classifier = self._classifiers.get(key)
        if classifier is None:
            table_rules = self._tables.get(table_id, ())
            applicable = [
                rule
                for rule in table_rules
                if rule.in_port is None or rule.in_port == in_port
            ]
            if len(applicable) == len(table_rules):
                # Port-oblivious table: one classifier serves every
                # ingress, so its guard scan and shadow flags are built
                # once instead of once per port.
                classifier = self._portless.get(table_id)
                if classifier is None:
                    classifier = _RuleClassifier(applicable)
                    self._portless[table_id] = classifier
            else:
                classifier = _RuleClassifier(applicable)
            self._classifiers[key] = classifier
        return classifier

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def apply(self, in_port: int, space: HeaderSpace) -> List[Emission]:
        """Run ``space`` arriving on ``in_port`` through the pipeline.

        Returns (out_port, space) emissions; ``CONTROLLER_PORT`` marks
        Packet-In punts.  Dropped space is simply absent from the result.
        """
        return self._apply_table(0, in_port, space)

    def apply_with_drops(
        self, in_port: int, space: HeaderSpace
    ) -> Tuple[List[Emission], HeaderSpace]:
        """Like :meth:`apply`, but also return the space this switch drops.

        The dropped space is the input minus every matched segment whose
        action list produced at least one emission (accounted by the
        *matched* input segment, so rewrites do not confuse the
        bookkeeping).  Conservative on multi-table pipelines: a segment
        that a GotoTable forwards partially is treated as forwarded.
        Table-miss and Drop-action space is exact — which is what the
        blackhole-localization diagnostics need.
        """
        stats = self.stats
        classifier = self._classifier(0, in_port)
        candidates, _flags = classifier.select(space, stats)
        stats.rules_checked += len(candidates)
        stats.rules_skipped += len(classifier.rules) - len(candidates)
        emissions: List[Emission] = []
        forwarded_input = HeaderSpace.empty()
        remaining = space
        for rule in candidates:
            if remaining.is_empty():
                break
            segment = remaining.intersect_wildcard(rule.match_wc)
            if segment.is_empty():
                continue
            produced = self._apply_actions(rule, in_port, segment)
            emissions.extend(produced)
            if produced:
                forwarded_input = forwarded_input.union(segment)
            remaining = remaining.subtract_wildcard(rule.match_wc)
        dropped = space.subtract(forwarded_input)
        return emissions, dropped

    def _apply_table(
        self, table_id: int, in_port: int, space: HeaderSpace
    ) -> List[Emission]:
        stats = self.stats
        classifier = self._classifier(table_id, in_port)
        candidates, flags = classifier.select(space, stats)
        stats.rules_checked += len(candidates)
        stats.rules_skipped += len(classifier.rules) - len(candidates)
        emissions: List[Emission] = []
        # The remainder is carried as a plain piece list — no HeaderSpace
        # is materialised per shadowing step, only per emitted segment.
        pieces: List[Wildcard] = list(space.wildcards)
        # AND of the remaining pieces' masks: a rule can only subsume the
        # remainder if every bit it constrains is fixed in every piece,
        # so the (piece-linear) subset scan hides behind this one intop.
        masks_and = _masks_and(pieces)
        _make = Wildcard._make
        for index, rule in enumerate(candidates):
            if not pieces:
                break
            match_wc = rule.match_wc
            rv = match_wc.value
            rm = match_wc.mask
            seg_pieces = [
                _make(p.value | rv, p.mask | rm)
                for p in pieces
                if not ((p.value ^ rv) & p.mask & rm)
            ]
            if not seg_pieces:
                continue  # disjoint: no segment, identity subtraction
            ops = rule.ops
            if ops is None:
                emissions.extend(
                    self._apply_actions(
                        rule, in_port, HeaderSpace._from_pieces(seg_pieces)
                    )
                )
            else:
                clear, bits, out_ports, goto = ops
                if clear:
                    seg_pieces = [
                        _make((p.value & ~clear) | bits, p.mask | clear)
                        for p in seg_pieces
                    ]
                segment = HeaderSpace._from_pieces(seg_pieces)
                for out_port in out_ports:
                    emissions.append((out_port, segment))
                if goto is not None:
                    emissions.extend(self._apply_table(goto, in_port, segment))
            if not (rm & ~masks_and) and all(
                piece.is_subset_of(match_wc) for piece in pieces
            ):
                stats.early_exits += 1
                break  # this rule swallows everything still unmatched
            if not flags[index]:
                continue  # no later candidate overlaps: shadowing is a no-op
            next_pieces: List[Wildcard] = []
            masks_and = -1
            for piece in pieces:
                if (piece.value ^ rv) & piece.mask & rm:
                    next_pieces.append(piece)
                    masks_and &= piece.mask
                else:
                    for part in piece.subtract(match_wc):
                        next_pieces.append(part)
                        masks_and &= part.mask
            pieces = next_pieces
        # Table miss: OpenFlow 1.3 default-drops; nothing emitted.
        return emissions

    def _apply_actions(
        self, rule: TransferRule, in_port: int, segment: HeaderSpace
    ) -> List[Emission]:
        emissions: List[Emission] = []
        current = segment
        for action in rule.actions:
            if isinstance(action, SetField):
                current = _rewrite(current, action.field, action.value)
            elif isinstance(action, PushVlan):
                current = _rewrite(current, "vlan_id", action.vlan_id)
            elif isinstance(action, PopVlan):
                current = _rewrite(current, "vlan_id", VLAN_NONE)
            elif isinstance(action, Output):
                emissions.append((action.port, current))
            elif isinstance(action, Flood):
                for port in self.ports:
                    if port != in_port:
                        emissions.append((port, current))
            elif isinstance(action, ToController):
                emissions.append((CONTROLLER_PORT, current))
            elif isinstance(action, GotoTable):
                emissions.extend(
                    self._apply_table(action.table_id, in_port, current)
                )
                break  # goto terminates this action list
            elif isinstance(action, Meter):
                continue  # metering does not change reachability
            elif isinstance(action, Drop):
                break
        return emissions

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def rule_count(self) -> int:
        return sum(len(rules) for rules in self._tables.values())

    def rules(self) -> List[TransferRule]:
        collected: List[TransferRule] = []
        for table_id in sorted(self._tables):
            collected.extend(self._tables[table_id])
        return collected

    def iter_tables(self) -> List[Tuple[int, Tuple[TransferRule, ...]]]:
        """(table_id, priority-ordered rules) pairs, in table order."""
        return [
            (table_id, tuple(self._tables[table_id]))
            for table_id in sorted(self._tables)
        ]

    def constraint_wildcards(self) -> List[Wildcard]:
        """Every header predicate this pipeline can distinguish.

        Match wildcards plus singleton wildcards for each constant a
        rewrite action writes — exactly the predicate set whose induced
        partition the atomic-predicate engine (:mod:`repro.hsa.atoms`)
        must refine for atom-granularity reasoning to be exact.
        """
        out: List[Wildcard] = []
        for rule in self.rules():
            out.append(rule.match_wc)
            for action in rule.actions:
                if isinstance(action, SetField):
                    raw = action.value
                    raw = (
                        raw.value
                        if isinstance(raw, (MacAddress, IPv4Address))
                        else int(raw)
                    )
                    out.append(Wildcard.from_fields(**{action.field: raw}))
                elif isinstance(action, PushVlan):
                    out.append(Wildcard.from_fields(vlan_id=action.vlan_id))
                elif isinstance(action, PopVlan):
                    out.append(Wildcard.from_fields(vlan_id=VLAN_NONE))
        return out


def _shadow_flags(rules: Sequence[TransferRule]) -> Tuple[bool, ...]:
    """flag[i]: does any later rule overlap rule i's match wildcard?

    When False, subtracting rule i's match from the remaining space
    cannot change any later rule's segment — the apply loop skips the
    subtraction outright.
    """
    flags: List[bool] = []
    for i, rule in enumerate(rules):
        value, mask = rule.match_wc.value, rule.match_wc.mask
        flags.append(
            any(
                not ((value ^ later.match_wc.value) & mask & later.match_wc.mask)
                for later in rules[i + 1 :]
            )
        )
    return tuple(flags)


def _masks_and(pieces: Sequence[Wildcard]) -> int:
    acc = -1
    for piece in pieces:
        acc &= piece.mask
    return acc


def _rewrite(
    space: HeaderSpace, field: str, value: Union[int, MacAddress, IPv4Address]
) -> HeaderSpace:
    slice_ = field_slice(field)
    raw = value.value if isinstance(value, (MacAddress, IPv4Address)) else int(value)
    return HeaderSpace._from_pieces(
        [w.rewrite_field(slice_, raw) for w in space.wildcards]
    )


def compile_switch_tf(
    switch: str, rules: Sequence[SnapshotRule], ports: Sequence[int]
) -> SwitchTransferFunction:
    """One switch's compiled pipeline from its snapshot rule set.

    The single compile recipe shared by the verification engine and the
    snapshot's lazy ``network_tf()`` — a pure function of ``(switch,
    rules, ports)``, so the same content key compiles to behaviourally
    identical artifacts.
    """
    n_tables = max((r.table_id for r in rules), default=0) + 1
    return SwitchTransferFunction(
        switch, rules, ports=tuple(ports), n_tables=max(n_tables, 2)
    )
