"""Differential tests: the fast HSA kernel vs the naive reference oracle.

The fast kernel (indexed classifiers, trusted constructors, iterative
worklist, shadow-skip subtraction) and the frozen pre-rewrite kernel in
:mod:`repro.hsa.reference` must produce the same verification answers on
every input: same reachable zones in the same order, same drops, same
loops.  Random rule sets over a three-switch chain exercise shadowing,
rewrites, multi-table pipelines, floods, and forwarding loops.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.snapshot import NetworkSnapshot
from repro.hsa.headerspace import HeaderSpace
from repro.hsa.reachability import ReachabilityAnalyzer
from repro.hsa.reference import (
    ReferenceReachabilityAnalyzer,
    reference_network_tf,
)
from repro.hsa.transfer import SnapshotRule
from repro.hsa.wildcard import Wildcard
from repro.netlib.addresses import IPv4Address
from repro.openflow.actions import (
    Drop,
    Flood,
    GotoTable,
    Output,
    PopVlan,
    PushVlan,
    SetField,
)
from repro.openflow.match import Match

# Three switches in a chain; ports: 1 = edge, 2 = toward next, 3 = toward prev.
SWITCHES = ("s1", "s2", "s3")
WIRING = {
    ("s1", 2): ("s2", 3),
    ("s2", 3): ("s1", 2),
    ("s2", 2): ("s3", 3),
    ("s3", 3): ("s2", 2),
}
EDGE_PORTS = {name: frozenset([1]) for name in SWITCHES}
SWITCH_PORTS = {name: (1, 2, 3) for name in SWITCHES}

IPS = [IPv4Address.parse("10.0.0.1"), IPv4Address.parse("10.0.0.2")]
TP_PORTS = [80, 81]


def match_strategy():
    return st.builds(
        Match,
        in_port=st.sampled_from([None, None, 1, 2, 3]),
        ip_dst=st.sampled_from([None, *IPS]),
        tp_dst=st.sampled_from([None, *TP_PORTS]),
        vlan_id=st.sampled_from([None, 0, 5]),
    )


def action_strategy(allow_goto: bool):
    options = [
        st.builds(Output, port=st.sampled_from([1, 2, 3])),
        st.just(Drop()),
        st.just(Flood()),
        st.builds(
            SetField, field=st.just("tp_dst"), value=st.sampled_from(TP_PORTS)
        ),
        st.builds(PushVlan, vlan_id=st.just(5)),
        st.just(PopVlan()),
    ]
    if allow_goto:
        # Goto only ever targets a strictly later table, like a real
        # OpenFlow pipeline — a self-goto diverges on both kernels.
        options.append(st.just(GotoTable(1)))
    return st.one_of(options)


def rule_strategy():
    def build(table, match, actions, priority):
        return SnapshotRule(
            table_id=table, priority=priority, match=match, actions=tuple(actions)
        )

    return st.sampled_from([0, 0, 0, 1]).flatmap(
        lambda table: st.builds(
            build,
            st.just(table),
            match_strategy(),
            st.lists(action_strategy(allow_goto=table == 0), min_size=1, max_size=3),
            st.integers(min_value=0, max_value=3),
        )
    )


def config_strategy():
    return st.fixed_dictionaries(
        {name: st.lists(rule_strategy(), max_size=6) for name in SWITCHES}
    )


def space_strategy():
    """Random injected spaces: one or two wildcard pieces over the fields."""

    def build(dst, dport, vlan):
        fields = {}
        if dst is not None:
            fields["ip_dst"] = dst.value
        if dport is not None:
            fields["tp_dst"] = dport
        if vlan is not None:
            fields["vlan_id"] = vlan
        return HeaderSpace.single(
            Wildcard.from_fields(**fields) if fields else Wildcard.all()
        )

    return st.builds(
        build,
        st.sampled_from([None, *IPS]),
        st.sampled_from([None, *TP_PORTS]),
        st.sampled_from([None, 0, 5]),
    )


def snapshot_from(config) -> NetworkSnapshot:
    return NetworkSnapshot(
        version=1,
        taken_at=0.0,
        rules={name: tuple(rules) for name, rules in config.items()},
        meters=(),
        wiring=WIRING,
        edge_ports=EDGE_PORTS,
        switch_ports=SWITCH_PORTS,
    )


def assert_same_result(fast, ref):
    """Fast and reference results must agree zone-for-zone, in order."""
    assert [(z.kind, z.switch, z.port) for z in fast.zones] == [
        (z.kind, z.switch, z.port) for z in ref.zones
    ]
    for zf, zr in zip(fast.zones, ref.zones):
        assert zf.space == zr.space, (
            f"zone space diverged at {zf.switch}:{zf.port}: "
            f"{zf.space} != {zr.space}"
        )
    assert [(l.switch, l.port, l.cycle) for l in fast.loops] == [
        (l.switch, l.port, l.cycle) for l in ref.loops
    ]
    for lf, lr in zip(fast.loops, ref.loops):
        assert lf.space == lr.space
    assert [(d.switch, d.port, d.depth) for d in fast.drops] == [
        (d.switch, d.port, d.depth) for d in ref.drops
    ]
    for df, dr in zip(fast.drops, ref.drops):
        assert df.space == dr.space
    assert fast.expansions == ref.expansions
    assert fast.switches_traversed == ref.switches_traversed
    assert fast.links_traversed == ref.links_traversed


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=config_strategy(), space=space_strategy())
def test_fast_kernel_matches_reference(config, space):
    ntf = snapshot_from(config).network_tf()
    ref_ntf = reference_network_tf(ntf)
    fast = ReachabilityAnalyzer(ntf, collect_drops=True)
    ref = ReferenceReachabilityAnalyzer(ref_ntf, collect_drops=True)
    for switch in SWITCHES:
        assert_same_result(
            fast.analyze(switch, 1, space), ref.analyze(switch, 1, space)
        )


def test_reference_matches_on_realistic_routed_chain():
    """One deterministic end-to-end case with real routed tables."""
    dst = IPs = IPv4Address.parse("10.0.0.1")
    rules = {
        "s1": (
            SnapshotRule(0, 10, Match(in_port=1), (GotoTable(1),)),
            SnapshotRule(1, 5, Match(ip_dst=dst), (Output(2),)),
            SnapshotRule(1, 0, Match(), (Drop(),)),
        ),
        "s2": (
            SnapshotRule(0, 10, Match(in_port=3), (GotoTable(1),)),
            SnapshotRule(1, 5, Match(ip_dst=dst), (Output(2),)),
        ),
        "s3": (
            SnapshotRule(0, 10, Match(in_port=3), (GotoTable(1),)),
            SnapshotRule(1, 5, Match(ip_dst=dst), (Output(1),)),
        ),
    }
    snapshot = NetworkSnapshot(
        version=1,
        taken_at=0.0,
        rules=rules,
        meters=(),
        wiring=WIRING,
        edge_ports=EDGE_PORTS,
        switch_ports=SWITCH_PORTS,
    )
    ntf = snapshot.network_tf()
    space = HeaderSpace.single(Wildcard.from_fields(ip_dst=dst.value))
    fast = ReachabilityAnalyzer(ntf, collect_drops=True).analyze("s1", 1, space)
    ref = ReferenceReachabilityAnalyzer(
        reference_network_tf(ntf), collect_drops=True
    ).analyze("s1", 1, space)
    assert_same_result(fast, ref)
    assert fast.reaches("s3", 1)
