"""Tests for the client library and the in-band tester internals."""

import pytest

from repro.core.client import COMPLETED_WINDOW, AuthResponder, SilentResponder
from repro.core.inband import (
    INTERCEPT_PRIORITY,
    RVAAS_COOKIE,
    RVAAS_SERVICE_IP,
    interception_matches,
)
from repro.core.protocol import (
    AuthChallenge,
    AuthReply,
    SealedResponse,
    sign_auth_reply,
    sign_challenge,
)
from repro.core.queries import GeoLocationQuery, IsolationQuery
from repro.crypto.cipher import HybridCiphertext
from repro.dataplane.host import RECEIVED_WINDOW
from repro.dataplane.topologies import isp_topology
from repro.netlib.addresses import IPv4Address, MacAddress
from repro.netlib.constants import RVAAS_AUTH_PORT, RVAAS_MAGIC_PORT
from repro.netlib.packet import udp_packet
from repro.testbed import build_testbed


@pytest.fixture()
def bed():
    return build_testbed(
        isp_topology(clients=["alice", "bob"]), isolate_clients=True, seed=42
    )


def packet_with(payload, dport):
    return udp_packet(
        eth_src=MacAddress.from_host_index(9),
        eth_dst=MacAddress.from_host_index(8),
        ip_src=IPv4Address(1),
        ip_dst=IPv4Address(2),
        sport=dport,
        dport=dport,
        payload=payload,
    )


class TestInterceptionRules:
    def test_installed_on_every_switch(self, bed):
        for name, switch in bed.network.switches.items():
            rvaas_rules = [
                entry
                for table in switch.tables
                for entry in table.entries()
                if entry.cookie == RVAAS_COOKIE
            ]
            assert len(rvaas_rules) == len(interception_matches()), name

    def test_priority_above_everything_else(self, bed):
        for switch in bed.network.switches.values():
            for table in switch.tables:
                for entry in table.entries():
                    if entry.cookie != RVAAS_COOKIE:
                        assert entry.priority < INTERCEPT_PRIORITY


class TestClientLibrary:
    def test_handle_lifecycle(self, bed):
        client = bed.clients["alice"]
        handle = client.submit(GeoLocationQuery())
        assert not handle.done
        assert client.pending_count() == 1
        bed.run(1.0)
        assert handle.done and handle.error is None
        assert client.pending_count() == 0

    def test_callback_invoked(self, bed):
        seen = []
        bed.clients["alice"].submit(GeoLocationQuery(), on_answer=seen.append)
        bed.run(1.0)
        assert len(seen) == 1 and seen[0].done

    def test_nonces_unique(self, bed):
        client = bed.clients["alice"]
        nonces = {client.submit(GeoLocationQuery()).nonce for _ in range(5)}
        assert len(nonces) == 5
        bed.run(2.0)  # drain

    def test_forged_response_ignored(self, bed):
        """A garbage 'integrity reply' injected at the client is dropped;
        the genuine signed reply still resolves the handle."""
        client = bed.clients["alice"]
        handle = client.submit(GeoLocationQuery())
        fake = SealedResponse(
            ciphertext=HybridCiphertext(wrapped_key=1, nonce=b"x" * 12, body=b"junk"),
            signature=12345,
        )
        client.host.deliver(packet_with(fake, RVAAS_MAGIC_PORT))
        assert not handle.done
        bed.run(1.0)
        assert handle.done

    def test_non_protocol_payload_ignored(self, bed):
        client = bed.clients["alice"]
        client.host.deliver(packet_with(b"noise", RVAAS_MAGIC_PORT))
        assert len(client.completed) == 0


class TestAuthResponder:
    def test_counts_answers(self, bed):
        bed.ask("alice", IsolationQuery())
        answered = sum(
            responder.challenges_answered for responder in bed.responders.values()
        )
        assert answered == 3

    def test_rejects_unsigned_challenge(self, bed):
        """Hosts never disclose presence to unauthenticated probers."""
        responder = bed.responders["h_ber1"]
        host = bed.network.host("h_ber1")
        sent_before = host.sent_count
        bogus = AuthChallenge(nonce=1, round_id=1, service="fake", signature=7)
        host.deliver(packet_with(bogus, RVAAS_AUTH_PORT))
        assert responder.challenges_rejected == 1
        assert responder.challenges_answered == 0
        assert host.sent_count == sent_before  # no reply leaked

    def test_silent_responder_counts(self):
        bed = build_testbed(
            isp_topology(clients=["alice", "bob"]),
            isolate_clients=True,
            seed=42,
            silent_hosts=["h_fra1"],
        )
        bed.ask("alice", IsolationQuery())
        assert bed.silent["h_fra1"].challenges_ignored == 1


class TestAuthRounds:
    def test_round_times_out_without_replies(self):
        bed = build_testbed(
            isp_topology(clients=["alice", "bob"]),
            isolate_clients=True,
            seed=42,
            silent_hosts=["h_ber1", "h_fra1", "h_par1"],
        )
        handle = bed.ask("alice", IsolationQuery())
        auth = handle.response.answer.auth
        assert auth.requests_issued == 3
        assert auth.replies_received == 0
        assert len(auth.silent_endpoints) == 3

    def test_wrong_nonce_reply_rejected(self, bed):
        outcomes = []
        service = bed.service
        round_id = service.inband.start_round(
            (("ber", 1),), nonce=555, on_complete=outcomes.append
        )
        # h_ber1 sends a stale reply with the wrong nonce in-band.
        stale = sign_auth_reply(
            AuthReply(host="h_ber1", client="alice", nonce=999, round_id=round_id),
            bed.host_keys["h_ber1"].private,
        )
        bed.network.host("h_ber1").send_udp(
            RVAAS_SERVICE_IP, RVAAS_AUTH_PORT, stale, sport=RVAAS_AUTH_PORT
        )
        bed.run(1.0)
        assert outcomes
        outcome = outcomes[0]
        # The genuine responder still answers the real challenge, but
        # the stale-nonce injection is logged as rejected.
        assert any(host == "h_ber1" for _origin, host in outcome.rejected)

    def test_forged_host_signature_rejected(self, bed):
        outcomes = []
        service = bed.service
        round_id = service.inband.start_round(
            (("ber", 1),), nonce=555, on_complete=outcomes.append
        )
        forged = AuthReply(
            host="h_ber1", client="alice", nonce=555, round_id=round_id, signature=1
        )
        bed.network.host("h_ber1").send_udp(
            RVAAS_SERVICE_IP, RVAAS_AUTH_PORT, forged, sport=RVAAS_AUTH_PORT
        )
        bed.run(1.0)
        assert outcomes[0].rejected  # the forged-signature reply was logged

    def test_unsolicited_verified_reply_recorded(self, bed):
        """A genuine host answering from an unchallenged port is evidence
        of unexpected connectivity and is recorded separately."""
        outcomes = []
        service = bed.service
        round_id = service.inband.start_round(
            (("ber", 1),), nonce=777, on_complete=outcomes.append
        )
        volunteer = sign_auth_reply(
            AuthReply(host="h_fra1", client="alice", nonce=777, round_id=round_id),
            bed.host_keys["h_fra1"].private,
        )
        bed.network.host("h_fra1").send_udp(
            RVAAS_SERVICE_IP, RVAAS_AUTH_PORT, volunteer, sport=RVAAS_AUTH_PORT
        )
        bed.run(1.0)
        outcome = outcomes[0]
        assert any(host == "h_fra1" for _origin, host in outcome.unsolicited)

    def test_origin_is_physical_not_claimed(self, bed):
        """The endpoint evidence is the Packet-In origin port, not the
        payload's claim: a reply claiming to be h_ber1 but sent from
        h_ber2's port does not authenticate (ber, 1)."""
        outcomes = []
        service = bed.service
        round_id = service.inband.start_round(
            (("ber", 1),), nonce=888, on_complete=outcomes.append
        )
        lying = sign_auth_reply(
            AuthReply(host="h_ber1", client="alice", nonce=888, round_id=round_id),
            bed.host_keys["h_ber1"].private,
        )
        # Sent from h_ber2 (port 2), carrying h_ber1's valid signature.
        bed.network.host("h_ber2").send_udp(
            RVAAS_SERVICE_IP, RVAAS_AUTH_PORT, lying, sport=RVAAS_AUTH_PORT
        )
        bed.run(1.0)
        outcome = outcomes[0]
        # The cross-port reply never authenticates a challenged port: it
        # is recorded against its true physical origin (ber, 2).
        assert any(origin == ("ber", 2) for origin, _host in outcome.unsolicited)
        # (ber, 1) appears in verified only because h_ber1's genuine
        # responder answered the genuine challenge sent there.
        assert outcome.verified.get(("ber", 1)) == "h_ber1"


class TestBoundedState:
    def test_long_ask_run_keeps_windows_at_their_caps(self, bed):
        """A long in-band session holds bounded per-client state: the
        host's delivery window and the client's answered-handle window
        fill to their caps and stay there, while the delivery count
        keeps climbing."""
        client = bed.clients["alice"]
        host = client.host
        for _ in range(300):
            last = bed.ask("alice", IsolationQuery())
        assert len(host.received) == RECEIVED_WINDOW
        assert len(client.completed) == COMPLETED_WINDOW
        assert host.received_count > RECEIVED_WINDOW
        assert client.completed[-1] is last  # the newest entries stay
