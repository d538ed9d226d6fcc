"""Tests for route compilation and the provider controller."""

import pytest

from repro.controlplane.provider import ProviderController
from repro.controlplane.routing import (
    compute_pair_route_plan,
    compute_route_plan,
    isolation_pairs,
    shortest_path_length,
)
from repro.dataplane.network import Network
from repro.dataplane.topologies import isp_topology, linear_topology


class TestRoutePlan:
    def test_rule_count_all_pairs(self):
        topo = linear_topology(3, hosts_per_switch=1)
        plan = compute_route_plan(topo)
        # one rule per (destination, switch) = 3 * 3.
        assert plan.rule_count() == 9

    def test_paths_recorded(self):
        topo = linear_topology(3, hosts_per_switch=1)
        plan = compute_route_plan(topo)
        assert plan.path_between("h1", "h3") == ("s1", "s2", "s3")
        assert plan.path_between("h3", "h1") == ("s3", "s2", "s1")

    def test_rules_for_switch(self):
        topo = linear_topology(2, hosts_per_switch=1)
        plan = compute_route_plan(topo)
        assert len(plan.rules_for("s1")) == 2

    def test_latency_weighted_choice(self):
        from repro.dataplane.topology import Topology

        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_switch(name)
        topo.add_host("h1", "a")
        topo.add_host("h2", "b")
        topo.add_link("a", "b", latency=0.100)  # slow direct
        topo.add_link("a", "c", latency=0.001)
        topo.add_link("c", "b", latency=0.001)  # fast detour
        plan = compute_route_plan(topo)
        assert plan.path_between("h1", "h2") == ("a", "c", "b")

    def test_shortest_path_length_helper(self):
        topo = linear_topology(4)
        assert shortest_path_length(topo, "s1", "s4") == 3


class TestPairPlan:
    def test_isolation_pairs_same_client_only(self):
        topo = isp_topology(clients=["alice", "bob"])
        pairs = isolation_pairs(topo)
        assert pairs
        assert all(src.client == dst.client for src, dst in pairs)

    def test_pair_rules_match_both_ips(self):
        topo = isp_topology(clients=["alice", "bob"])
        plan = compute_pair_route_plan(topo, isolation_pairs(topo))
        for rule in plan.rules:
            assert rule.match.ip_src is not None
            assert rule.match.ip_dst is not None

    def test_pair_plan_skips_self(self):
        topo = isp_topology(clients=["alice", "bob"])
        hosts = list(topo.hosts.values())
        plan = compute_pair_route_plan(topo, [(hosts[0], hosts[0])])
        assert plan.rule_count() == 0


class TestProviderDeployment:
    def test_flat_deploy_connects_everyone(self):
        topo = linear_topology(3, hosts_per_switch=1, clients=["a", "b"])
        net = Network(topo, seed=0)
        provider = ProviderController()
        provider.attach(net)
        provider.deploy()
        net.run_until_idle()
        net.host("h1").send_udp(net.host("h3").ip, 1, b"x")
        net.run_until_idle()
        assert len(net.host("h3").received) == 1

    def test_isolated_deploy_blocks_cross_client(self):
        topo = linear_topology(4, hosts_per_switch=1, clients=["a", "b"])
        # round robin: h1,h3 -> a; h2,h4 -> b
        net = Network(topo, seed=0)
        provider = ProviderController()
        provider.attach(net)
        provider.deploy(isolate_clients=True)
        net.run_until_idle()
        net.host("h1").send_udp(net.host("h3").ip, 1, b"same-client")
        net.host("h1").send_udp(net.host("h2").ip, 1, b"cross-client")
        net.run_until_idle()
        assert len(net.host("h3").received) == 1
        assert len(net.host("h2").received) == 0

    def test_isolated_deploy_blocks_spoofing(self):
        topo = linear_topology(4, hosts_per_switch=1, clients=["a", "b"])
        net = Network(topo, seed=0)
        provider = ProviderController()
        provider.attach(net)
        provider.deploy(isolate_clients=True)
        net.run_until_idle()
        # h2 (client b) spoofs h1's source address toward h3 (client a).
        spoofed = net.host("h2").send_udp(net.host("h3").ip, 1, b"spoof")
        # Direct injection with forged ip_src:
        forged = spoofed.replace(ip_src=net.host("h1").ip)
        net.host("h2").send_packet(forged)
        net.run_until_idle()
        assert len(net.host("h3").received) == 0

    def test_provider_reports_benign_plan(self):
        topo = linear_topology(3, hosts_per_switch=1, clients=["a"])
        net = Network(topo, seed=0)
        provider = ProviderController()
        provider.attach(net)
        provider.deploy()
        assert provider.report_path("h1", "h3") == ("s1", "s2", "s3")
        assert "h3" in provider.report_reachable_hosts("h1")

    def test_withdraw_all(self):
        topo = linear_topology(2, hosts_per_switch=1, clients=["a"])
        net = Network(topo, seed=0)
        provider = ProviderController()
        provider.attach(net)
        provider.deploy()
        net.run_until_idle()
        assert net.total_rules() > 0
        provider.withdraw_all()
        net.run_until_idle()
        assert net.total_rules() == 0

    def test_expected_rules_grouping(self):
        topo = linear_topology(2, hosts_per_switch=1, clients=["a"])
        net = Network(topo, seed=0)
        provider = ProviderController()
        provider.attach(net)
        provider.deploy()
        grouped = provider.expected_rules()
        assert set(grouped) == {"s1", "s2"}
