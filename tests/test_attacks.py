"""Tests for the adversary library: each attack's data-plane effect."""

import pytest

from repro.attacks import (
    BlackholeAttack,
    DiversionAttack,
    ExfiltrationAttack,
    GeoViolationAttack,
    JoinAttack,
    ShortLivedReconfigurationAttack,
)
from repro.controlplane.malicious import CompromisedController
from repro.dataplane.network import Network
from repro.dataplane.topologies import isp_topology, linear_topology


@pytest.fixture()
def isp():
    topo = isp_topology(clients=["alice", "bob"])
    net = Network(topo, seed=3)
    provider = CompromisedController()
    provider.attach(net)
    provider.deploy()
    net.run_until_idle()
    return topo, net, provider


def send_and_settle(net, src, dst, payload=b"x", dport=1000):
    net.host(src).send_udp(net.host(dst).ip, dport, payload)
    net.run_until_idle()


class TestDiversion:
    def test_traffic_takes_detour(self, isp):
        topo, net, provider = isp
        provider.compromise(DiversionAttack("h_ber1", "h_fra1", "off"))
        net.run_until_idle()
        send_and_settle(net, "h_ber1", "h_fra1")
        trace = [s for s, _ in net.host("h_fra1").received[0].trace]
        assert "off" in trace
        assert net.host("h_fra1").received[0].vlan_id == 0  # tag removed

    def test_delivery_still_works(self, isp):
        topo, net, provider = isp
        provider.compromise(DiversionAttack("h_ber1", "h_fra1", "off"))
        net.run_until_idle()
        send_and_settle(net, "h_ber1", "h_fra1", b"payload")
        assert net.host("h_fra1").received[0].payload == b"payload"

    def test_other_flows_unaffected(self, isp):
        topo, net, provider = isp
        provider.compromise(DiversionAttack("h_ber1", "h_fra1", "off"))
        net.run_until_idle()
        send_and_settle(net, "h_ber2", "h_fra1")
        trace = [s for s, _ in net.host("h_fra1").received[0].trace]
        assert "off" not in trace

    def test_via_on_existing_path_no_tagging(self, isp):
        topo, net, provider = isp
        # fra is already on the ber->par shortest path? ber-fra-par vs
        # ber-fra direct; use via == ingress switch.
        provider.compromise(DiversionAttack("h_ber1", "h_fra1", "ber"))
        net.run_until_idle()
        send_and_settle(net, "h_ber1", "h_fra1")
        assert len(net.host("h_fra1").received) == 1

    def test_provider_keeps_lying(self, isp):
        topo, net, provider = isp
        claimed_before = provider.report_path("h_ber1", "h_fra1")
        provider.compromise(DiversionAttack("h_ber1", "h_fra1", "off"))
        assert provider.report_path("h_ber1", "h_fra1") == claimed_before

    def test_disarm_restores(self, isp):
        topo, net, provider = isp
        attack = DiversionAttack("h_ber1", "h_fra1", "off")
        provider.compromise(attack)
        net.run_until_idle()
        provider.retreat(attack)
        net.run_until_idle()
        send_and_settle(net, "h_ber1", "h_fra1")
        trace = [s for s, _ in net.host("h_fra1").received[0].trace]
        assert "off" not in trace


class TestJoinAttack:
    @pytest.fixture()
    def isolated(self):
        topo = isp_topology(clients=["alice", "bob"])
        net = Network(topo, seed=3)
        provider = CompromisedController()
        provider.attach(net)
        provider.deploy(isolate_clients=True)
        net.run_until_idle()
        return topo, net, provider

    def test_covert_route_works(self, isolated):
        topo, net, provider = isolated
        send_and_settle(net, "h_ber2", "h_fra1")  # bob -> alice blocked
        assert len(net.host("h_fra1").received) == 0
        provider.compromise(JoinAttack("h_ber2", "h_fra1"))
        net.run_until_idle()
        send_and_settle(net, "h_ber2", "h_fra1")
        assert len(net.host("h_fra1").received) == 1

    def test_unidirectional_by_default(self, isolated):
        topo, net, provider = isolated
        provider.compromise(JoinAttack("h_ber2", "h_fra1"))
        net.run_until_idle()
        send_and_settle(net, "h_fra1", "h_ber2")
        assert len(net.host("h_ber2").received) == 0

    def test_bidirectional_option(self, isolated):
        topo, net, provider = isolated
        provider.compromise(JoinAttack("h_ber2", "h_fra1", bidirectional=True))
        net.run_until_idle()
        send_and_settle(net, "h_fra1", "h_ber2")
        assert len(net.host("h_ber2").received) == 1

    def test_report_names_victim_client(self, isolated):
        topo, net, provider = isolated
        report = provider.compromise(JoinAttack("h_ber2", "h_fra1"))
        assert report.victim_client == "alice"
        assert report.violated_property == "isolation"


class TestExfiltration:
    def test_copy_reaches_spy(self, isp):
        topo, net, provider = isp
        provider.compromise(ExfiltrationAttack("h_par1", "h_ams1"))
        net.run_until_idle()
        send_and_settle(net, "h_ber1", "h_par1", b"secret")
        assert net.host("h_par1").received[0].payload == b"secret"
        assert net.host("h_ams1").received[0].payload == b"secret"

    def test_same_switch_spy(self, isp):
        topo, net, provider = isp
        provider.compromise(ExfiltrationAttack("h_ber1", "h_ber2"))
        net.run_until_idle()
        send_and_settle(net, "h_fra1", "h_ber1", b"secret")
        assert net.host("h_ber1").received and net.host("h_ber2").received


class TestBlackhole:
    def test_drops_flow(self, isp):
        topo, net, provider = isp
        provider.compromise(BlackholeAttack("h_ber1", "h_fra1"))
        net.run_until_idle()
        send_and_settle(net, "h_ber1", "h_fra1")
        assert len(net.host("h_fra1").received) == 0

    def test_reverse_direction_unaffected(self, isp):
        topo, net, provider = isp
        provider.compromise(BlackholeAttack("h_ber1", "h_fra1"))
        net.run_until_idle()
        send_and_settle(net, "h_fra1", "h_ber1")
        assert len(net.host("h_ber1").received) == 1


class TestGeoViolation:
    def test_routes_through_forbidden_region(self, isp):
        topo, net, provider = isp
        report = provider.compromise(
            GeoViolationAttack("h_ber1", "h_fra1", "offshore")
        )
        net.run_until_idle()
        send_and_settle(net, "h_ber1", "h_fra1")
        trace = [s for s, _ in net.host("h_fra1").received[0].trace]
        assert "off" in trace
        assert report.violated_property == "geo"

    def test_unknown_region_rejected(self, isp):
        topo, net, provider = isp
        with pytest.raises(ValueError):
            provider.compromise(
                GeoViolationAttack("h_ber1", "h_fra1", "atlantis")
            )


class TestShortLivedReconfiguration:
    def test_flapping_schedule(self, isp):
        topo, net, provider = isp
        inner = BlackholeAttack("h_ber1", "h_fra1")
        flapper = ShortLivedReconfigurationAttack(
            inner, period=1.0, active_duration=0.3
        )
        provider.compromise(flapper)
        net.run(2.5)  # covers activations at ~t0, t0+1, t0+2
        flapper.stop()
        assert len(flapper.activations) == 3
        for on, off in flapper.activations:
            assert abs((off - on) - 0.3) < 1e-9

    def test_ground_truth_was_active_at(self, isp):
        topo, net, provider = isp
        inner = BlackholeAttack("h_ber1", "h_fra1")
        flapper = ShortLivedReconfigurationAttack(
            inner, period=1.0, active_duration=0.3, phase=0.5
        )
        provider.compromise(flapper)
        net.run(2.0)
        assert flapper.was_active_at(0.6)
        assert not flapper.was_active_at(0.9)

    def test_stop_halts_flapping(self, isp):
        topo, net, provider = isp
        inner = BlackholeAttack("h_ber1", "h_fra1")
        flapper = ShortLivedReconfigurationAttack(
            inner, period=1.0, active_duration=0.3
        )
        provider.compromise(flapper)
        net.run(0.1)
        flapper.stop()
        count = len(flapper.activations)
        net.run(5.0)
        assert len(flapper.activations) == count

    def test_data_plane_flaps(self, isp):
        topo, net, provider = isp
        inner = BlackholeAttack("h_ber1", "h_fra1")
        flapper = ShortLivedReconfigurationAttack(
            inner, period=2.0, active_duration=1.0
        )
        start = net.sim.now
        provider.compromise(flapper)
        net.run(0.5)  # attack active
        net.host("h_ber1").send_udp(net.host("h_fra1").ip, 1, b"a")
        net.run(0.2)
        dropped = len(net.host("h_fra1").received) == 0
        net.sim.run_until(start + 1.3)  # now in the inactive half-cycle
        net.host("h_ber1").send_udp(net.host("h_fra1").ip, 1, b"b")
        net.run(0.2)
        delivered = len(net.host("h_fra1").received) == 1
        flapper.stop()
        assert dropped and delivered

    def test_invalid_duty_cycle_rejected(self):
        with pytest.raises(ValueError):
            ShortLivedReconfigurationAttack(
                BlackholeAttack("a", "b"), period=1.0, active_duration=2.0
            )
