"""Tests for the preventive verify-then-install gate (prevention mode).

The gate interposes on the provider->switch FlowMod path and verifies
every rule against the client contracts *before* it reaches the data
plane.  Covered here:

* FlowMod semantics helpers and the drop-only loop-skip argument,
* the decision lattice (allow / repair / quarantine / block) and the
  interception-rule protection,
* prevention of every armed attack with delivery preserved,
* the null-policy differential: a do-nothing gate run is byte-identical
  to a gateless run (timing, RNG, sequence numbers, mirror),
* transactional rollback of partially installed batches,
* burst-evasion handling under both failure dispositions, with signed
  audit records and recovery re-verification,
* the ACTIVE -> DEGRADED -> RECOVERING -> ACTIVE health machine,
* the speculative-overlay ablation (stale-mirror verification misses
  the interleaved diversion; the overlay catches it),
* chaos: transient verification faults are retried, lossy channels do
  not wedge the gate.
"""

import pickle
from collections import Counter

from repro.attacks import (
    BlackholeAttack,
    BurstEvasionAttack,
    DiversionAttack,
    ExfiltrationAttack,
    GeoViolationAttack,
    InterleavedDiversionAttack,
)
from repro.attacks.base import ATTACK_COOKIE
from repro.core.gate import (
    GATE_ACTIVE,
    GATE_ALLOW,
    GATE_BLOCK,
    GATE_QUARANTINE,
    GATE_REPAIR,
    GateConfig,
    GatePolicy,
    _cannot_create_loops,
    apply_flowmod,
    rule_from_mod,
    verify_gate_record,
)
from repro.core.monitor import MonitorMode
from repro.dataplane.topologies import isp_topology
from repro.faults import FaultPlan
from repro.netlib.addresses import IPv4Address
from repro.openflow.actions import Drop, Output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.testbed import build_testbed

FORBIDDEN = ("offshore",)


def gated_bed(seed=42, gate=None, **kwargs):
    if gate is None:
        gate = GateConfig(policy=GatePolicy(forbidden_regions=FORBIDDEN))
    return build_testbed(
        isp_topology(clients=["alice", "bob"]),
        seed=seed,
        isolate_clients=True,
        gate=gate,
        **kwargs,
    )


def blackhole_flowmod(bed):
    """The raw blackhole rule: drop h_ber1 -> h_fra1 at its ingress."""
    return (
        "ber",
        Match(
            ip_src=bed.network.host("h_ber1").ip,
            ip_dst=bed.network.host("h_fra1").ip,
        ),
    )


def delivered(bed, src="h_ber1", dst="h_fra1"):
    before = bed.network.host(dst).received_count
    bed.network.host(src).send_udp(bed.network.host(dst).ip, 1000, b"x")
    bed.run(1.0)
    return bed.network.host(dst).received_count > before


class TestFlowModSemantics:
    def test_rule_from_mod_round_trip(self):
        mod = FlowMod(
            command=FlowModCommand.ADD,
            match=Match(tp_dst=80),
            actions=(Output(2),),
            priority=7,
            cookie=99,
        )
        rule = rule_from_mod(mod)
        assert rule.priority == 7 and rule.cookie == 99
        assert rule.match == mod.match and rule.actions == mod.actions

    def test_apply_flowmod_add_and_delete(self):
        add = FlowMod(
            command=FlowModCommand.ADD,
            match=Match(tp_dst=80),
            actions=(Drop(),),
            priority=5,
        )
        rules = apply_flowmod((), add)
        assert len(rules) == 1
        gone = apply_flowmod(
            rules, FlowMod(command=FlowModCommand.DELETE, match=Match())
        )
        assert gone == ()

    def test_drop_only_mods_cannot_create_loops(self):
        drop_add = FlowMod(
            command=FlowModCommand.ADD, match=Match(tp_dst=80), actions=(Drop(),)
        )
        assert _cannot_create_loops(drop_add)

    def test_forwarding_and_delete_mods_may_create_loops(self):
        fwd = FlowMod(
            command=FlowModCommand.ADD, match=Match(tp_dst=80), actions=(Output(1),)
        )
        assert not _cannot_create_loops(fwd)
        # A DELETE can unmask a lower-priority looping rule: never skip.
        delete = FlowMod(command=FlowModCommand.DELETE, match=Match(tp_dst=80))
        assert not _cannot_create_loops(delete)
        mixed = FlowMod(
            command=FlowModCommand.ADD,
            match=Match(tp_dst=80),
            actions=(Drop(), Output(1)),
        )
        assert not _cannot_create_loops(mixed)


class TestDecisionLattice:
    def test_benign_rule_allowed(self):
        bed = gated_bed()
        decoy = IPv4Address.parse("203.0.113.9")
        bed.provider.install_flow(
            "ber", Match(ip_src=decoy, ip_dst=decoy), (Drop(),), priority=3
        )
        bed.run(1.0)
        assert [d.verdict for d in bed.gate.decisions] == [GATE_ALLOW]
        assert bed.gate.metrics.allowed == 1

    def test_violating_rule_repaired_and_harmless(self):
        bed = gated_bed()
        switch, match = blackhole_flowmod(bed)
        bed.provider.install_flow(switch, match, (Drop(),), priority=20)
        bed.run(1.0)
        assert [d.verdict for d in bed.gate.decisions] == [GATE_REPAIR]
        # The demoted twin is shadowed by the agreed-policy rules: the
        # victim flow still delivers.
        assert delivered(bed)

    def test_unrepairable_rule_quarantined(self):
        policy = GatePolicy(repair=False)
        bed = gated_bed(gate=GateConfig(policy=policy))
        switch, match = blackhole_flowmod(bed)
        bed.provider.install_flow(switch, match, (Drop(),), priority=20)
        bed.run(1.0)
        assert [d.verdict for d in bed.gate.decisions] == [GATE_QUARANTINE]
        entries = bed.gate.shadow.for_switch(switch)
        assert len(entries) == 1 and entries[0].rule.priority == 20
        # Quarantine never touches the data plane.
        assert delivered(bed)

    def test_block_when_repair_and_quarantine_disabled(self):
        policy = GatePolicy(repair=False, quarantine=False)
        bed = gated_bed(gate=GateConfig(policy=policy))
        switch, match = blackhole_flowmod(bed)
        bed.provider.install_flow(switch, match, (Drop(),), priority=20)
        bed.run(1.0)
        assert [d.verdict for d in bed.gate.decisions] == [GATE_BLOCK]
        assert delivered(bed)

    def test_punt_rule_delete_blocked(self):
        bed = gated_bed()
        # A wildcard DELETE would wipe the RVaaS interception rules
        # along with everything else: the gate must refuse it outright.
        bed.provider.remove_flow("ber", Match())
        bed.run(1.0)
        assert [d.verdict for d in bed.gate.decisions] == [GATE_BLOCK]
        assert any("interception" in v for v in bed.gate.decisions[0].violations)

    def test_decisions_are_signed(self):
        bed = gated_bed()
        switch, match = blackhole_flowmod(bed)
        bed.provider.install_flow(switch, match, (Drop(),), priority=20)
        bed.run(1.0)
        public = bed.service.keypair.public
        assert bed.gate.decisions
        assert all(verify_gate_record(d, public) for d in bed.gate.decisions)


class TestAttackPrevention:
    """Every armed attack is stopped before touching the data plane."""

    def check(self, make_attack, *, victim=("h_ber1", "h_fra1")):
        bed = gated_bed()
        bed.provider.compromise(make_attack())
        bed.run(2.0)
        stats = bed.gate.stats()
        stopped = stats["blocked"] + stats["repaired"] + stats["quarantined"]
        assert stopped >= 1, stats
        # Zero post-install damage: every attack rule still live at its
        # requested priority is one the gate explicitly verified harmless
        # (e.g. a diversion segment whose activating tagger was repaired),
        # and the victim flow still delivers.
        live_attack_rules = sum(
            1
            for switch in bed.topology.switches
            for r in bed.service.monitor.current_rules(switch)
            if r.cookie == ATTACK_COOKIE and r.priority >= 20
        )
        assert live_attack_rules <= stats["allowed"]
        assert delivered(bed, *victim)
        return bed

    def test_blackhole(self):
        self.check(lambda: BlackholeAttack("h_ber1", "h_fra1"))

    def test_diversion(self):
        bed = self.check(lambda: DiversionAttack("h_ber1", "h_fra1", "off"))
        received = bed.network.host("h_fra1").received
        assert "off" not in [s for s, _ in received[-1].trace]

    def test_exfiltration(self):
        bed = self.check(
            lambda: ExfiltrationAttack("h_fra1", "h_ber2"),
            victim=("h_ber1", "h_fra1"),
        )
        assert not bed.network.host("h_ber2").received

    def test_geo_violation(self):
        bed = self.check(lambda: GeoViolationAttack("h_ber1", "h_par1", "offshore"))
        received = bed.network.host("h_fra1").received
        assert "off" not in [s for s, _ in received[-1].trace]


class TestNullGateIdentity:
    def test_null_policy_run_byte_identical_to_gateless(self):
        def run(gate):
            bed = build_testbed(
                isp_topology(clients=["alice", "bob"]),
                seed=42,
                isolate_clients=True,
                gate=gate,
            )
            bed.provider.compromise(BlackholeAttack("h_ber1", "h_fra1"))
            bed.run(5.0)
            sim = bed.network.sim
            mirror = {
                s: bed.service.monitor.current_rules(s)
                for s in sorted(bed.provider.channels)
            }
            seqs = tuple(
                (ch.controller_end._send_seq, ch.switch_end._send_seq)
                for ch in bed.network.channels
            )
            return (sim.now, sim.rng.getstate(), seqs, pickle.dumps(mirror))

        gateless = run(None)
        null_gated = run(GateConfig(policy=GatePolicy.null()))
        assert gateless == null_gated


class TestTransactions:
    def test_mid_batch_refusal_rolls_back_prefix(self):
        bed = gated_bed()
        switch, bad_match = blackhole_flowmod(bed)
        decoy = IPv4Address.parse("203.0.113.77")
        policy = GatePolicy(
            forbidden_regions=FORBIDDEN, repair=False, quarantine=False
        )
        bed = gated_bed(gate=GateConfig(policy=policy))
        switch, bad_match = blackhole_flowmod(bed)
        with bed.provider.flow_transaction():
            bed.provider.install_flow(
                switch, Match(ip_src=decoy, ip_dst=decoy), (Drop(),), priority=3
            )
            bed.provider.install_flow(switch, bad_match, (Drop(),), priority=20)
        bed.run(1.5)
        verdicts = Counter(d.verdict for d in bed.gate.decisions)
        assert verdicts[GATE_BLOCK] >= 1
        assert bed.gate.metrics.batches_aborted >= 1
        assert bed.gate.metrics.rollbacks >= 1
        # All-or-nothing: the benign prefix member is gone again.
        live = bed.service.monitor.current_rules(switch)
        assert not any(r.priority == 3 and r.match.ip_src for r in live)
        assert delivered(bed)


class TestBurstEvasion:
    def test_fail_open_audits_and_remediates(self):
        bed = gated_bed(seed=7, gate=GateConfig(max_pending=16))
        bed.provider.compromise(
            BurstEvasionAttack(BlackholeAttack("h_ber1", "h_fra1"), burst=64)
        )
        bed.run(0.3)
        mid_state = bed.gate.state
        bed.run(10.0)
        gate = bed.gate
        stats = gate.stats()
        assert mid_state != GATE_ACTIVE  # pressure degraded the gate
        assert gate.state == GATE_ACTIVE  # ...and it recovered
        assert stats["passed_through"] >= 1
        assert stats["fail_open_windows"] >= 1
        assert stats["backlog_reverified"] >= stats["passed_through"] - 1
        assert stats["backlog_remediated"] >= 1
        public = bed.service.keypair.public
        assert all(verify_gate_record(r, public) for r in gate.audit_log)
        # The smuggled blackhole was rolled back at recovery.
        live = bed.service.monitor.current_rules("ber")
        assert not any(
            r.cookie == ATTACK_COOKIE and r.priority == 20 and not r.match.tp_dst
            for r in live
        )
        assert delivered(bed)

    def test_fail_closed_installs_nothing_unverified(self):
        policy = GatePolicy(fail_open=False)
        bed = gated_bed(
            seed=7, gate=GateConfig(policy=policy, max_pending=16)
        )
        bed.provider.compromise(
            BurstEvasionAttack(BlackholeAttack("h_ber1", "h_fra1"), burst=64)
        )
        bed.run(10.0)
        stats = bed.gate.stats()
        assert stats["passed_through"] == 0
        assert stats["fail_closed_rejects"] >= 1
        live = bed.service.monitor.current_rules("ber")
        assert not any(r.cookie == ATTACK_COOKIE for r in live)
        assert delivered(bed)


class TestSpeculativeOverlay:
    """The overlay is load-bearing: stale-mirror verification misses
    the interleaved diversion (each step is individually inert)."""

    def run_interleaved(self, overlay):
        bed = build_testbed(
            isp_topology(clients=["alice", "bob"]),
            seed=11,
            isolate_clients=True,
            monitor_mode=MonitorMode.ACTIVE,
            mean_poll_interval=5.0,
            gate=GateConfig(speculative_overlay=overlay),
        )
        bed.provider.compromise(
            InterleavedDiversionAttack("h_ber1", "h_fra1", "off", stage_gap=0.05)
        )
        bed.run(1.0)
        bed.network.host("h_ber1").send_udp(
            bed.network.host("h_fra1").ip, 1000, b"x"
        )
        bed.run(1.0)
        received = bed.network.host("h_fra1").received
        via_off = bool(received) and "off" in [s for s, _ in received[-1].trace]
        return bed, via_off

    def test_overlay_stops_interleaved_diversion(self):
        bed, via_off = self.run_interleaved(overlay=True)
        assert not via_off
        verdicts = {d.verdict for d in bed.gate.decisions}
        assert verdicts & {GATE_REPAIR, GATE_BLOCK, GATE_QUARANTINE}

    def test_stale_mirror_ablation_misses_it(self):
        bed, via_off = self.run_interleaved(overlay=False)
        assert via_off  # the ablated gate waves every stage through
        assert {d.verdict for d in bed.gate.decisions} == {GATE_ALLOW}


class TestChaos:
    def test_transient_verify_faults_are_retried(self):
        plan = FaultPlan.uniform(gate_verify_failure=0.5, seed=5, active_until=8.0)
        bed = gated_bed(
            seed=5,
            fault_plan=plan,
            gate=GateConfig(
                policy=GatePolicy(forbidden_regions=FORBIDDEN), verify_retries=4
            ),
        )
        decoy = IPv4Address.parse("203.0.113.50")
        for i in range(6):
            bed.provider.install_flow(
                "fra", Match(ip_src=decoy, tp_dst=40000 + i), (Drop(),), priority=3
            )
        bed.provider.compromise(BlackholeAttack("h_ber1", "h_fra1"))
        bed.run(4.0)
        assert bed.fault_injector.metrics.gate_verify_failures >= 1
        assert bed.gate.metrics.retries >= 1
        stats = bed.gate.stats()
        assert stats["blocked"] + stats["repaired"] + stats["quarantined"] >= 1
        assert delivered(bed)

    def test_lossy_channels_do_not_wedge_the_gate(self):
        plan = FaultPlan.uniform(drop=0.2, delay=0.2, seed=9, active_until=6.0)
        bed = gated_bed(seed=9, fault_plan=plan)
        bed.provider.compromise(BlackholeAttack("h_ber1", "h_fra1"))
        bed.run(8.0)
        stats = bed.gate.stats()
        assert stats["intercepted"] >= 1
        assert stats["pending"] == 0  # nothing stuck in the queue
        assert stats["blocked"] + stats["repaired"] + stats["quarantined"] >= 1
