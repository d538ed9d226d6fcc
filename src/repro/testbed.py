"""One-call construction of a complete RVaaS deployment.

The testbed assembles everything a scenario needs: the emulated network,
a (compromisable) provider controller with the agreed routing policy, an
attested RVaaS service with client registrations derived from the
topology's tenant assignment, client libraries, and per-host auth
responders.  Examples, tests and benchmarks all build on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.controlplane.malicious import CompromisedController
from repro.core.attestation import (
    AttestedService,
    expected_measurement,
    setup_attested_service,
)
from repro.core.client import AuthResponder, RVaaSClient, SilentResponder
from repro.core.monitor import MonitorMode
from repro.core.protocol import ClientRegistration, HostRecord
from repro.core.queries import Query
from repro.core.service import RVaaSController
from repro.crypto.enclave import AttestationVerifier, make_attestation_root
from repro.crypto.keys import KeyPair, generate_keypair
from repro.core.gate import GateConfig, GatePolicy, PreventiveGate
from repro.dataplane.network import Network
from repro.dataplane.topology import Topology
from repro.faults import FaultInjector, FaultPlan
from repro.serving.scheduler import ServingConfig


@dataclass
class Testbed:
    """A fully wired scenario."""

    topology: Topology
    network: Network
    provider: CompromisedController
    service: RVaaSController
    attested: AttestedService
    attestation_verifier: AttestationVerifier
    registrations: Dict[str, ClientRegistration]
    clients: Dict[str, RVaaSClient]
    client_keys: Dict[str, KeyPair]
    host_keys: Dict[str, KeyPair]
    responders: Dict[str, AuthResponder] = field(default_factory=dict)
    silent: Dict[str, SilentResponder] = field(default_factory=dict)
    fault_injector: Optional[FaultInjector] = None
    gate: Optional[PreventiveGate] = None

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def run(self, duration: float) -> None:
        """Advance virtual time (the right way to 'wait' in a scenario).

        Note: ``Simulator.run_until_idle`` never returns on a live
        testbed, because the monitor's polling loop keeps the event
        queue non-empty by design — always advance by duration instead.
        """
        self.network.run(duration)

    def ask(self, client_name: str, query: Query, *, max_wait: float = 5.0):
        """Submit a query in-band and run the simulation until answered.

        Returns the resolved :class:`~repro.core.client.QueryHandle`;
        raises ``TimeoutError`` if no verified answer arrives.
        """
        client = self.clients[client_name]
        handle = client.submit(query)
        deadline = self.network.sim.now + max_wait
        while not handle.done and self.network.sim.now < deadline:
            if not self.network.sim.step():
                break
        if not handle.done:
            raise TimeoutError(
                f"query {type(query).__name__} for {client_name} unanswered "
                f"after {max_wait}s of virtual time"
            )
        return handle

    def client_names(self) -> List[str]:
        return sorted(self.clients)

    def close(self) -> None:
        """Nothing to release: the testbed holds no executors.

        Kept so callers that scope a testbed's lifetime (the benchmark
        harness among them) need not special-case it.
        """


def build_registrations(
    topology: Topology,
    client_keys: Dict[str, KeyPair],
    host_keys: Dict[str, KeyPair],
) -> Dict[str, ClientRegistration]:
    """Derive client contracts from the topology's tenant assignment."""
    registrations: Dict[str, ClientRegistration] = {}
    by_client: Dict[str, List[HostRecord]] = {}
    for host in topology.hosts.values():
        if not host.client:
            continue
        record = HostRecord(
            name=host.name,
            ip=host.ip.value,
            switch=host.switch,
            port=host.port,
            public_key=host_keys[host.name].public,
        )
        by_client.setdefault(host.client, []).append(record)
    for client, records in by_client.items():
        registrations[client] = ClientRegistration(
            name=client,
            public_key=client_keys[client].public,
            hosts=tuple(sorted(records, key=lambda r: r.name)),
        )
    return registrations


def build_testbed(
    topology: Topology,
    *,
    seed: int = 0,
    isolate_clients: bool = False,
    monitor_mode: MonitorMode = MonitorMode.HYBRID,
    mean_poll_interval: float = 5.0,
    randomize_polls: bool = True,
    auth_timeout: float = 0.25,
    auth_retries: int = 0,
    poll_timeout: float = 0.25,
    max_poll_retries: int = 3,
    silent_hosts: Sequence[str] = (),
    record_history: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    serving: Optional[ServingConfig] = None,
    gate: Optional[GateConfig] = None,
    settle: bool = True,
) -> Testbed:
    """Build and start a complete deployment on ``topology``.

    * ``isolate_clients`` selects the provider's agreed policy (per-client
      isolation vs full any-to-any routing).
    * ``silent_hosts`` names hosts that receive but never answer
      authentication challenges (untrusted clients).
    * ``fault_plan`` installs a :class:`~repro.faults.FaultInjector`
      before any control channel opens, so every session (provider and
      RVaaS alike) sees the planned impairments from its first record.
    * ``serving`` enables the multi-tenant serving tier
      (:class:`~repro.serving.scheduler.QueryScheduler`) in front of the
      engine; ``None`` keeps the synchronous per-request path.
    * ``gate`` installs a :class:`~repro.core.gate.PreventiveGate` on
      every control channel (prevention mode).  The gate is wired before
      the provider attaches — so both honest and malicious providers
      pass through it — but only arms once the RVaaS service starts
      (the agreed policy deploys ungated, as it predates onboarding).
      Pass a :class:`~repro.core.gate.GatePolicy` for the defaults.
    * ``settle`` drains the event queue once so rule installation and the
      initial monitoring poll complete before the scenario starts.
    """
    network = Network(topology, seed=seed)
    fault_injector: Optional[FaultInjector] = None
    if fault_plan is not None:
        fault_injector = FaultInjector(network, fault_plan)
        fault_injector.install()
    preventive_gate: Optional[PreventiveGate] = None
    if gate is not None:
        if isinstance(gate, GatePolicy):
            gate = GateConfig(policy=gate)
        preventive_gate = PreventiveGate(network, gate).install()
    key_rng = random.Random(seed ^ 0x5EED)

    provider = CompromisedController()
    provider.attach(network)
    provider.deploy(isolate_clients=isolate_clients)

    # Attestation root + enclave-held service key.
    attestation_key, attestation_verifier = make_attestation_root(key_rng)
    attested = setup_attested_service(attestation_key, key_rng)

    client_names = sorted(
        {h.client for h in topology.hosts.values() if h.client}
    )
    client_keys = {
        name: generate_keypair(f"client:{name}", rng=key_rng)
        for name in client_names
    }
    host_keys = {
        host.name: generate_keypair(f"host:{host.name}", rng=key_rng)
        for host in topology.hosts.values()
        if host.client
    }
    registrations = build_registrations(topology, client_keys, host_keys)

    service = RVaaSController(
        attested.service_keypair,
        registrations,
        enclave=attested.enclave,
        monitor_mode=monitor_mode,
        mean_poll_interval=mean_poll_interval,
        randomize_polls=randomize_polls,
        auth_timeout=auth_timeout,
        auth_retries=auth_retries,
        poll_timeout=poll_timeout,
        max_poll_retries=max_poll_retries,
        record_history=record_history,
        serving=serving,
    )
    service.start(network)
    if preventive_gate is not None:
        service.attach_gate(preventive_gate)

    # Client libraries verify attestation before trusting the service key.
    rvaas_public = attested.service_keypair.public
    RVaaSClient.verify_service(
        attested.quote, rvaas_public, expected_measurement(), attestation_verifier
    )

    clients: Dict[str, RVaaSClient] = {}
    responders: Dict[str, AuthResponder] = {}
    silent: Dict[str, SilentResponder] = {}
    for name in client_names:
        first_host = registrations[name].hosts[0]
        clients[name] = RVaaSClient(
            network.host(first_host.name),
            name,
            client_keys[name],
            rvaas_public,
            rng=random.Random(seed ^ hash(name) & 0xFFFF),
            clock=lambda: network.sim.now,
        )
    for host_spec in topology.hosts.values():
        if not host_spec.client:
            continue
        host = network.host(host_spec.name)
        if host_spec.name in silent_hosts:
            silent[host_spec.name] = SilentResponder(host)
        else:
            responders[host_spec.name] = AuthResponder(
                host,
                host_spec.client,
                host_keys[host_spec.name],
                rvaas_public,
            )

    testbed = Testbed(
        topology=topology,
        network=network,
        provider=provider,
        service=service,
        attested=attested,
        attestation_verifier=attestation_verifier,
        registrations=registrations,
        clients=clients,
        client_keys=client_keys,
        host_keys=host_keys,
        responders=responders,
        silent=silent,
        fault_injector=fault_injector,
        gate=preventive_gate,
    )
    if settle:
        # Let FlowMods, monitor subscriptions, and the seed poll land.
        network.run(1.0)
    return testbed
