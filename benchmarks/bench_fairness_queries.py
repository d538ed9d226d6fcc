"""E12 — Fairness / network-neutrality queries over meter tables (§IV-C b).

"RVaaS could be used to check whether allocated routes and meter tables
meet network neutrality requirements."  The experiment installs a
discriminatory rate limit on one client, shows the real data-plane
throttling (token-bucket drops), and verifies the fairness query flags
exactly the discriminated client.
"""

import pytest

from repro.core.queries import FairnessQuery
from repro.dataplane.topologies import isp_topology
from repro.netlib.addresses import IPv4Address
from repro.openflow.actions import Meter, Output
from repro.openflow.match import Match
from repro.openflow.meters import MeterBand
from repro.testbed import build_testbed


def throttle_client(bed, client: str, rate_kbps: int, switch: str = "ber"):
    """Install a meter limiting ``client``'s traffic entering ``switch``."""
    host = next(
        h for h in bed.registrations[client].hosts if h.switch == switch
    )
    bed.provider.install_meter(switch, 42, MeterBand(rate_kbps=rate_kbps, burst_kb=2))
    # Throttled copy of the ingress guard: meter then continue routing.
    from repro.openflow.actions import GotoTable

    bed.provider.install_flow(
        switch,
        Match(in_port=host.port, ip_src=IPv4Address(host.ip)),
        (Meter(42), GotoTable(1)),
        priority=25,
    )
    bed.run(0.5)
    bed.service.monitor.poll_all()
    bed.run(0.5)
    return host


def measure_goodput(bed, src_host: str, dst_host: str, packets=60, payload=1400):
    src = bed.network.host(src_host)
    dst = bed.network.host(dst_host)
    before = dst.received_count
    for i in range(packets):
        src.send_udp(dst.ip, 5000, b"x" * payload)
        bed.run(0.005)
    bed.run(0.5)
    return dst.received_count - before


def test_fairness_detection_and_real_throttling(benchmark, report):
    rep = report("E12", "Neutrality: meter detection and real throttling")
    bed = build_testbed(
        isp_topology(clients=["alice", "bob"]), isolate_clients=True, seed=71
    )
    clean = bed.service.answer_locally("alice", FairnessQuery())

    throttle_client(bed, "alice", rate_kbps=500)
    throttled = bed.service.answer_locally("alice", FairnessQuery())
    bob_view = bed.service.answer_locally("bob", FairnessQuery())

    # Real data-plane effect: alice's goodput drops, bob's does not.
    alice_goodput = measure_goodput(bed, "h_ber1", "h_fra1")
    bob_goodput = measure_goodput(bed, "h_ber2", "h_ams1")

    rows = [
        ("alice, before meter", clean.neutral, "-", "-"),
        (
            "alice, after 500 kbps meter",
            throttled.neutral,
            len(throttled.meters_on_my_traffic),
            f"{alice_goodput}/60 pkts",
        ),
        ("bob, after alice's meter", bob_view.neutral, 0, f"{bob_goodput}/60 pkts"),
    ]
    rep.table(["view", "neutral", "meters_on_traffic", "goodput"], rows)
    rep.line()
    rep.line("shape check: the fairness query flags exactly the throttled")
    rep.line("client; the token bucket really drops the excess (60 x 1.4 kB")
    rep.line("in 0.3 s ≈ 2.2 Mbps offered vs 500 kbps allowed).")
    rep.finish()

    assert clean.neutral
    assert not throttled.neutral
    assert bob_view.neutral
    assert alice_goodput < 60
    assert bob_goodput == 60

    benchmark(lambda: bed.service.answer_locally("alice", FairnessQuery()))


def test_detection_across_rates(benchmark, report):
    rep = report("E12b", "Detection across meter rates")
    rows = []
    for rate in (100, 1000, 10000):
        bed = build_testbed(
            isp_topology(clients=["alice", "bob"]), isolate_clients=True, seed=72
        )
        throttle_client(bed, "alice", rate_kbps=rate)
        answer = bed.service.answer_locally("alice", FairnessQuery())
        rows.append(
            (
                rate,
                answer.neutral,
                answer.meters_on_my_traffic[0].rate_kbps
                if answer.meters_on_my_traffic
                else "-",
            )
        )
    rep.table(["meter_rate_kbps", "reported_neutral", "reported_rate"], rows)
    rep.line()
    rep.line("any rate limit applying only to one client's traffic violates")
    rep.line("neutrality, regardless of how generous it is.")
    rep.finish()
    assert all(row[1] is False for row in rows)

    bed = build_testbed(
        isp_topology(clients=["alice", "bob"]), isolate_clients=True, seed=72
    )
    benchmark(lambda: bed.service.answer_locally("alice", FairnessQuery()))
