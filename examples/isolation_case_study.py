#!/usr/bin/env python
"""Case study 1 (paper §IV-B1): detecting a join attack on tenant isolation.

Scenario: the provider agreed to isolate alice's and bob's sub-networks.
A cyber attacker compromises the provider's SDN controller and covertly
installs rules giving a bob-side host access to one of alice's machines —
a "join attack": a secret access point into alice's network.

The compromised controller keeps reporting the benign configuration, so
traceroute-style checks see nothing.  Alice's periodic RVaaS isolation
query exposes the covert access point, including the exact violating
endpoint, backed by in-band authentication evidence.

Run:  python examples/isolation_case_study.py
"""

from repro import IsolationQuery, build_testbed, isp_topology
from repro.attacks import JoinAttack
from repro.baselines import TracerouteVerifier


def show_isolation(tag, answer) -> None:
    verdict = "ISOLATED" if answer.isolated else "!!! ISOLATION VIOLATED !!!"
    print(f"[{tag}] {verdict}")
    if answer.violating_endpoints:
        for endpoint in answer.violating_endpoints:
            print(f"        covert access point: {endpoint.labelled()}")
    if answer.auth is not None:
        print(
            f"        auth evidence: {answer.auth.replies_received}"
            f"/{answer.auth.requests_issued} challenged endpoints replied"
        )


def main() -> None:
    print("=== Case study: isolation checks vs a join attack ===\n")
    bed = build_testbed(
        isp_topology(clients=["alice", "bob"]), isolate_clients=True, seed=7
    )
    traceroute = TracerouteVerifier(bed.provider)

    print("Phase 1 — benign provider")
    show_isolation("rvaas", bed.ask("alice", IsolationQuery()).response.answer)
    print(f"[traceroute] suspicious: {traceroute.detects_attack('h_ber1', 'h_fra1')}\n")

    print("Phase 2 — control plane compromised: JoinAttack(h_ber2 -> h_fra1)")
    report = bed.provider.compromise(JoinAttack("h_ber2", "h_fra1"))
    bed.run(0.5)
    print(f"  attacker action: {report.details}")

    # The covert route really works: bob's host reaches alice's machine.
    bed.network.host("h_ber2").send_udp(
        bed.network.host("h_fra1").ip, 8080, b"knock knock"
    )
    bed.run(0.5)
    delivered = bed.network.host("h_fra1").received_count
    print(f"  covert packets delivered to alice's host: {delivered}\n")

    print("Phase 3 — verification")
    print(
        "[traceroute] suspicious:",
        traceroute.detects_attack("h_ber1", "h_fra1"),
        " (the provider lies — nothing to see)",
    )
    show_isolation("rvaas", bed.ask("alice", IsolationQuery()).response.answer)

    print("\nPhase 4 — attacker covers tracks (removes the rules)")
    attack = bed.provider.active_attacks[0]
    bed.provider.retreat(attack)
    bed.run(0.5)
    show_isolation("rvaas", bed.ask("alice", IsolationQuery()).response.answer)
    baseline = bed.service.snapshot().rule_signatures()
    witnesses = bed.service.history.transient_signatures()
    print(
        f"        …but RVaaS history retains {len(witnesses)} transient "
        "rule signature(s) as forensic witnesses of the attack."
    )


if __name__ == "__main__":
    main()
