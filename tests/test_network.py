"""Integration tests for the network emulator with real routing."""

import pytest

from repro.controlplane.provider import ProviderController
from repro.dataplane.network import Network
from repro.dataplane.topologies import linear_topology, single_switch_topology


@pytest.fixture()
def routed_linear():
    topo = linear_topology(3, hosts_per_switch=1, clients=["c"])
    net = Network(topo, seed=0)
    provider = ProviderController()
    provider.attach(net)
    provider.deploy()
    net.run_until_idle()
    return net, provider


class TestDelivery:
    def test_end_to_end_udp(self, routed_linear):
        net, _ = routed_linear
        src, dst = net.host("h1"), net.host("h3")
        src.send_udp(dst.ip, 4242, b"payload")
        net.run_until_idle()
        assert len(dst.received) == 1
        assert dst.received[0].payload == b"payload"

    def test_trace_follows_chain(self, routed_linear):
        net, _ = routed_linear
        src, dst = net.host("h1"), net.host("h3")
        src.send_udp(dst.ip, 4242, b"x")
        net.run_until_idle()
        assert [s for s, _ in dst.received[0].trace] == ["s1", "s2", "s3"]

    def test_same_switch_delivery(self):
        topo = single_switch_topology(2, clients=["c"])
        net = Network(topo, seed=0)
        provider = ProviderController()
        provider.attach(net)
        provider.deploy()
        net.run_until_idle()
        net.host("h1").send_udp(net.host("h2").ip, 1, b"hi")
        net.run_until_idle()
        assert len(net.host("h2").received) == 1

    def test_latency_accumulates(self, routed_linear):
        net, _ = routed_linear
        src, dst = net.host("h1"), net.host("h3")
        start = net.sim.now
        src.send_udp(dst.ip, 4242, b"x")
        net.run_until_idle()
        # two inter-switch links at 1 ms plus two host links at 0.2 ms.
        assert net.sim.now - start >= 0.0024

    def test_udp_handler_dispatch(self, routed_linear):
        net, _ = routed_linear
        got = []
        net.host("h3").register_udp_handler(555, got.append)
        net.host("h1").send_udp(net.host("h3").ip, 555, b"a")
        net.host("h1").send_udp(net.host("h3").ip, 556, b"b")
        net.run_until_idle()
        assert len(got) == 1 and got[0].payload == b"a"

    def test_received_on_filter(self, routed_linear):
        net, _ = routed_linear
        net.host("h1").send_udp(net.host("h3").ip, 555, b"a")
        net.run_until_idle()
        assert len(net.host("h3").received_on(555)) == 1
        assert net.host("h3").received_on(556) == []


class TestLinkState:
    def test_downed_link_stops_traffic(self, routed_linear):
        net, _ = routed_linear
        net.set_link_state("s1", "s2", up=False)
        net.run_until_idle()
        net.host("h1").send_udp(net.host("h3").ip, 1, b"x")
        net.run_until_idle()
        assert len(net.host("h3").received) == 0

    def test_link_state_emits_port_status(self, routed_linear):
        net, provider = routed_linear
        net.set_link_state("s1", "s2", up=False)
        net.run_until_idle()
        assert any(status == "down" for _, _, _, status in provider.port_events)

    def test_unknown_link_rejected(self, routed_linear):
        net, _ = routed_linear
        with pytest.raises(ValueError):
            net.set_link_state("s1", "s3", up=False)


class TestAccounting:
    def test_link_counters(self, routed_linear):
        net, _ = routed_linear
        net.host("h1").send_udp(net.host("h3").ip, 1, b"x")
        net.run_until_idle()
        link = net.link_at("s1", net.topology.links[0].port_a)
        assert link.packets_carried == 1

    def test_packets_delivered_counter(self, routed_linear):
        net, _ = routed_linear
        net.host("h1").send_udp(net.host("h3").ip, 1, b"x")
        net.run_until_idle()
        assert net.packets_delivered == 1

    def test_total_rules(self, routed_linear):
        net, _ = routed_linear
        # 3 destinations x 3 switches = 9 routing rules.
        assert net.total_rules() == 9

    def test_determinism_across_runs(self):
        def run():
            topo = linear_topology(3, hosts_per_switch=1, clients=["c"])
            net = Network(topo, seed=5)
            provider = ProviderController()
            provider.attach(net)
            provider.deploy()
            net.run_until_idle()
            net.host("h1").send_udp(net.host("h3").ip, 1, b"x")
            net.run_until_idle()
            return net.sim.now, net.sim.events_executed

        assert run() == run()
