"""Tests for the emulation-based verification backend (§IV-A2)."""

import pytest

from repro.attacks import BlackholeAttack, DiversionAttack, ExfiltrationAttack, JoinAttack
from repro.core.emulation import EmulationVerifier, ShadowNetwork
from repro.core.queries import ReachableDestinationsQuery, TrafficScope
from repro.dataplane.topologies import isp_topology, linear_topology
from repro.testbed import build_testbed


@pytest.fixture()
def bed():
    return build_testbed(
        isp_topology(clients=["alice", "bob"]), isolate_clients=True, seed=42
    )


class TestShadowNetwork:
    def test_replays_rules(self, bed):
        snapshot = bed.service.snapshot()
        shadow = ShadowNetwork(snapshot)
        for name, switch in shadow.switches.items():
            assert switch.rule_count() == len(snapshot.rules[name])

    def test_probe_delivery_matches_policy(self, bed):
        snapshot = bed.service.snapshot()
        shadow = ShadowNetwork(snapshot)
        alice = bed.registrations["alice"]
        src, dst = alice.hosts[0], alice.hosts[1]
        from repro.netlib.addresses import IPv4Address, MacAddress
        from repro.netlib.packet import udp_packet

        probe = udp_packet(
            eth_src=MacAddress.from_host_index(1),
            eth_dst=MacAddress.from_host_index(0),
            ip_src=IPv4Address(src.ip),
            ip_dst=IPv4Address(dst.ip),
            sport=1,
            dport=2,
        )
        result = shadow.run_probe_round(src.access_point, [probe])
        assert dst.access_point in result.reached_ports()

    def test_reused_shadow_resets_meter_state_between_rounds(self):
        """A cached replica must answer like a fresh one (engine reuse).

        A tight meter passes exactly 3 of 5 probes per pristine round;
        without the per-round reset the second round would start from a
        drained token bucket and drop more.
        """
        from repro.core.snapshot import NetworkSnapshot, SnapshotMeter
        from repro.hsa.transfer import SnapshotRule
        from repro.netlib.addresses import IPv4Address, MacAddress
        from repro.netlib.packet import udp_packet
        from repro.openflow.actions import Meter, Output
        from repro.openflow.match import Match
        from repro.openflow.meters import MeterBand

        snapshot = NetworkSnapshot(
            version=1,
            taken_at=0.0,
            rules={
                "s1": (
                    SnapshotRule(
                        table_id=0,
                        priority=10,
                        match=Match.build(),
                        actions=(Meter(1), Output(2)),
                    ),
                )
            },
            meters=(
                SnapshotMeter(
                    switch="s1",
                    meter_id=1,
                    # burst 1 kb = 8000 bits; probes are 320 B = 2560 bits
                    band=MeterBand(rate_kbps=1, burst_kb=1),
                ),
            ),
            wiring={},
            edge_ports={"s1": frozenset([1, 2])},
            switch_ports={"s1": (1, 2)},
        )
        shadow = ShadowNetwork(snapshot)
        probes = [
            udp_packet(
                eth_src=MacAddress.from_host_index(1),
                eth_dst=MacAddress.from_host_index(0),
                ip_src=IPv4Address.parse("10.0.0.1"),
                ip_dst=IPv4Address.parse("10.0.0.2"),
                sport=1,
                dport=2,
                payload=("probe", i),
            )
            for i in range(5)
        ]
        first = shadow.run_probe_round(("s1", 1), probes)
        second = shadow.run_probe_round(("s1", 1), probes)
        assert len(first.arrivals[("s1", 2)]) == 3
        assert len(second.arrivals[("s1", 2)]) == 3

    def test_shadow_is_isolated_from_live_network(self, bed):
        """Probes in the shadow never reach real hosts."""
        snapshot = bed.service.snapshot()
        shadow = ShadowNetwork(snapshot)
        alice = bed.registrations["alice"]
        received_before = bed.network.host("h_fra1").received_count
        verifier = EmulationVerifier(bed.registrations)
        verifier.reachable_destinations(alice, snapshot)
        assert bed.network.host("h_fra1").received_count == received_before

    def test_controller_punts_counted(self, bed):
        snapshot = bed.service.snapshot()
        shadow = ShadowNetwork(snapshot)
        alice = bed.registrations["alice"]
        from repro.netlib.addresses import IPv4Address, MacAddress
        from repro.netlib.constants import RVAAS_MAGIC_PORT
        from repro.netlib.packet import udp_packet

        magic = udp_packet(
            eth_src=MacAddress.from_host_index(1),
            eth_dst=MacAddress.from_host_index(0),
            ip_src=IPv4Address(alice.hosts[0].ip),
            ip_dst=IPv4Address(0),
            sport=1,
            dport=RVAAS_MAGIC_PORT,
        )
        result = shadow.run_probe_round(alice.hosts[0].access_point, [magic])
        assert result.controller_copies == 1
        assert result.reached_ports() == frozenset()


class TestEmulationVerifier:
    def test_benign_matches_hsa(self, bed):
        snapshot = bed.service.snapshot()
        alice = bed.registrations["alice"]
        emulated = EmulationVerifier(bed.registrations).reachable_destinations(
            alice, snapshot
        )
        logical = bed.service.verifier.reachable_destinations(alice, snapshot)
        assert {e for e in emulated} == {
            e for e in logical.endpoints if e.port >= 0
        }

    @pytest.mark.parametrize(
        "attack",
        [
            JoinAttack("h_ber2", "h_fra1"),
            ExfiltrationAttack("h_fra1", "h_off1"),
            DiversionAttack("h_ber1", "h_fra1", "off"),
        ],
        ids=["join", "exfiltration", "diversion"],
    )
    def test_attacked_matches_hsa(self, bed, attack):
        bed.provider.compromise(attack)
        bed.run(0.5)
        snapshot = bed.service.snapshot()
        alice = bed.registrations["alice"]
        emulated = EmulationVerifier(bed.registrations).reachable_destinations(
            alice, snapshot
        )
        logical = bed.service.verifier.reachable_destinations(alice, snapshot)
        assert set(emulated) == {e for e in logical.endpoints if e.port >= 0}

    def test_can_reach_direction(self, bed):
        snapshot = bed.service.snapshot()
        alice = bed.registrations["alice"]
        bob = bed.registrations["bob"]
        verifier = EmulationVerifier(bed.registrations)
        fra_port = next(
            h.access_point for h in alice.hosts if h.name == "h_fra1"
        )
        assert verifier.can_reach(alice, snapshot, "h_ber1", fra_port)
        assert not verifier.can_reach(bob, snapshot, "h_ber2", fra_port)

    def test_blackhole_visible(self, bed):
        alice = bed.registrations["alice"]
        fra_port = next(h.access_point for h in alice.hosts if h.name == "h_fra1")
        verifier = EmulationVerifier(bed.registrations)
        assert verifier.can_reach(alice, bed.service.snapshot(), "h_ber1", fra_port)
        bed.provider.compromise(BlackholeAttack("h_ber1", "h_fra1"))
        bed.run(0.5)
        assert not verifier.can_reach(
            alice, bed.service.snapshot(), "h_ber1", fra_port
        )

    def test_scope_constrains_probes(self, bed):
        alice = bed.registrations["alice"]
        verifier = EmulationVerifier(bed.registrations)
        endpoints = verifier.reachable_destinations(
            alice, bed.service.snapshot(), scope=TrafficScope(tp_dst=5555)
        )
        assert endpoints  # pair routes are port-agnostic
        assert all(e.client == "alice" for e in endpoints)

    def test_unknown_host_rejected(self, bed):
        verifier = EmulationVerifier(bed.registrations)
        with pytest.raises(KeyError):
            verifier.can_reach(
                bed.registrations["alice"],
                bed.service.snapshot(),
                "h_nope",
                ("ber", 1),
            )


class TestDifferential:
    """Differential validation: emulation arrivals == HSA predictions.

    For a family of topologies and adversarial mutations, every endpoint
    HSA declares reachable must receive a probe in the shadow network,
    and every probe arrival must be predicted by HSA.  (Emulation probes
    cover all registered destination addresses, and the configs under
    test route on registered addresses, so the sampling is exhaustive
    here.)
    """

    @pytest.mark.parametrize("n_switches", [2, 4, 6])
    @pytest.mark.parametrize("isolate", [True, False])
    def test_backends_agree_on_linear(self, n_switches, isolate):
        bed = build_testbed(
            linear_topology(n_switches, hosts_per_switch=1, clients=["a", "b"]),
            isolate_clients=isolate,
            seed=n_switches,
        )
        snapshot = bed.service.snapshot()
        verifier = EmulationVerifier(bed.registrations)
        for client in bed.registrations:
            registration = bed.registrations[client]
            emulated = set(
                verifier.reachable_destinations(registration, snapshot)
            )
            logical = {
                e
                for e in bed.service.verifier.reachable_destinations(
                    registration, snapshot
                ).endpoints
                if e.port >= 0
            }
            assert emulated == logical, f"{client} on linear-{n_switches}"

    def test_backends_agree_under_random_attacks(self):
        import random

        rng = random.Random(99)
        bed = build_testbed(
            isp_topology(clients=["alice", "bob"]), isolate_clients=True, seed=5
        )
        hosts = [h for h in bed.topology.hosts if bed.topology.hosts[h].client]
        for trial in range(3):
            src, dst = rng.sample(hosts, 2)
            bed.provider.compromise(JoinAttack(src, dst))
            bed.run(0.5)
            snapshot = bed.service.snapshot()
            verifier = EmulationVerifier(bed.registrations)
            for client, registration in bed.registrations.items():
                emulated = set(
                    verifier.reachable_destinations(registration, snapshot)
                )
                logical = {
                    e
                    for e in bed.service.verifier.reachable_destinations(
                        registration, snapshot
                    ).endpoints
                    if e.port >= 0
                }
                assert emulated == logical, f"trial {trial}, client {client}"
