"""Adversarial corner cases and failure injection.

These tests probe the boundaries of the threat model: adversaries
mimicking RVaaS artifacts (cookies, magic headers), infrastructure
failures during protocol rounds, and the flapping attack interacting
with live queries.
"""

import pytest

from repro.attacks import BlackholeAttack, JoinAttack, ShortLivedReconfigurationAttack
from repro.core.inband import RVAAS_COOKIE
from repro.core.queries import (
    GeoLocationQuery,
    IsolationQuery,
    ReachableDestinationsQuery,
)
from repro.core.verifier import CONTROL_PLANE_ENDPOINT
from repro.dataplane.topologies import isp_topology
from repro.netlib.addresses import IPv4Address
from repro.openflow.actions import Output, ToController
from repro.openflow.match import Match
from repro.testbed import build_testbed


@pytest.fixture()
def bed():
    return build_testbed(
        isp_topology(clients=["alice", "bob"]), isolate_clients=True, seed=42
    )


class TestCookieForgery:
    def test_forged_cookie_rule_still_analyzed(self, bed):
        """An attacker cannot hide a rule from analysis by stamping it
        with the RVaaS cookie: only exact interception rules are elided."""
        victim = bed.topology.hosts["h_fra1"]
        attacker = bed.topology.hosts["h_ber2"]
        covert = Match(ip_src=attacker.ip, ip_dst=victim.ip)
        link = bed.topology.link_between("ber", "fra")
        # Covert route disguised with the service cookie, both hops.
        bed.provider.install_flow(
            "ber", covert, (Output(link.port_a),), priority=20, cookie=RVAAS_COOKIE
        )
        bed.provider.install_flow(
            "fra", covert, (Output(victim.port),), priority=20, cookie=RVAAS_COOKIE
        )
        bed.run(0.5)
        # The verifier must still see the rule (it is not an exact
        # interception rule), so alice's isolation query flags bob.
        answer = bed.service.answer_locally("alice", IsolationQuery())
        assert not answer.isolated

    def test_forged_punt_rule_reported_as_control_plane_copy(self, bed):
        """A ToController rule with the forged cookie but a data-traffic
        match is exfiltration toward the control plane — reported."""
        alice_ip = IPv4Address(bed.registrations["alice"].hosts[0].ip)
        bed.provider.install_flow(
            "ber",
            Match(ip_src=alice_ip),
            (ToController(),),
            priority=30,
            cookie=RVAAS_COOKIE,
        )
        bed.run(0.5)
        answer = bed.service.answer_locally(
            "alice", ReachableDestinationsQuery(authenticate=False)
        )
        assert CONTROL_PLANE_ENDPOINT in answer.endpoints


class TestFailuresDuringProtocol:
    def test_link_failure_after_deploy_breaks_reachability_honestly(self, bed):
        """A failed link is not an attack, but verification must reflect
        the new reality rather than the stale plan."""
        bed.network.set_link_state("ber", "fra", up=False)
        bed.run(0.2)
        # Traffic that needed the link no longer flows...
        bed.network.host("h_ber1").send_udp(
            bed.network.host("h_fra1").ip, 1, b"x"
        )
        bed.run(0.5)
        assert len(bed.network.host("h_fra1").received) == 0

    def test_query_from_unaffected_part_still_works(self, bed):
        bed.network.set_link_state("fra", "off", up=False)
        bed.run(0.2)
        handle = bed.ask("alice", GeoLocationQuery())
        assert handle.response is not None

    def test_silent_victim_port_down_during_auth_round(self, bed):
        """A host whose port died mid-round shows up as silent, exactly
        like an uncooperative client — no false authentication."""
        switch, port = bed.registrations["alice"].hosts[2].access_point
        bed.network.switch(switch).ports[port].up = False
        handle = bed.ask("alice", IsolationQuery())
        auth = handle.response.answer.auth
        assert auth.requests_issued == 3
        assert auth.replies_received == 2
        assert len(auth.silent_endpoints) == 1


class TestFlappingDuringQueries:
    def test_query_during_active_phase_detects(self, bed):
        flapper = ShortLivedReconfigurationAttack(
            JoinAttack("h_ber2", "h_fra1"),
            period=4.0,
            active_duration=2.0,
        )
        bed.provider.compromise(flapper)
        bed.run(0.5)  # inside the first active window
        answer = bed.service.answer_locally("alice", IsolationQuery())
        assert not answer.isolated
        flapper.stop()

    def test_query_during_inactive_phase_clean_but_history_knows(self, bed):
        flapper = ShortLivedReconfigurationAttack(
            JoinAttack("h_ber2", "h_fra1"),
            period=2.0,
            active_duration=0.5,
        )
        start = bed.network.sim.now
        bed.provider.compromise(flapper)
        bed.network.sim.run_until(start + 1.0)  # inactive half-cycle
        answer = bed.service.answer_locally("alice", IsolationQuery())
        assert answer.isolated  # the instantaneous view is clean...
        from repro.core.queries import ExposureHistoryQuery

        history = bed.service.answer_locally("alice", ExposureHistoryQuery())
        assert history.any_exposure  # ...but the past is on record
        flapper.stop()


class TestMagicHeaderAbuse:
    def test_spoofed_magic_packet_with_garbage_ignored(self, bed):
        """Random hosts spamming the magic port cannot crash or confuse
        the service; bad payloads are dropped (only sealed requests with
        valid client signatures are processed)."""
        served_before = bed.service.queries_served
        bed.network.host("h_ber2").send_udp(
            IPv4Address(0), 17999, b"not-a-sealed-request", sport=17999
        )
        bed.run(0.5)
        assert bed.service.queries_served == served_before
        # Service still healthy.
        handle = bed.ask("alice", GeoLocationQuery())
        assert handle.response is not None

    def test_replayed_sealed_request_is_reprocessed_harmlessly(self, bed):
        """A captured sealed request replayed by the adversary yields a
        duplicate (sealed) response to the original port — no state is
        corrupted and the client simply ignores the unexpected copy."""
        client = bed.clients["alice"]
        handle = client.submit(GeoLocationQuery())
        bed.run(1.0)
        assert handle.done
        # Replay the captured request packet at bob's port.
        sealed_packet = next(
            p
            for p in bed.network.host(client.host.name).received
            if p.tp_dst == 17999
        )
        served_before = bed.service.queries_served
        bed.network.host("h_ber2").send_packet(
            sealed_packet.replace(trace=())
        )
        bed.run(1.0)
        # The service served it again (it cannot know it is a replay at
        # this layer) but alice's client state is unchanged.
        assert client.pending_count() == 0
        assert len(client.completed) == 1
