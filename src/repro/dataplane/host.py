"""End hosts: the clients' machines at the network edge.

Hosts own a tiny UDP stack (send + per-port receive dispatch).  The RVaaS
client agent and auth responder (:mod:`repro.core.client`) attach to a
host by registering UDP port handlers — exactly the "software [clients]
run ... in user space" of paper §IV-A3.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.netlib.addresses import IPv4Address, MacAddress
from repro.netlib.packet import Packet, udp_packet
from repro.dataplane.topology import GeoLocation, HostSpec

ReceiveHandler = Callable[[Packet], None]

#: Delivered packets a host keeps for inspection.  Older ones fall out of
#: the window (``received_count`` keeps counting), so a long run holds
#: bounded state per host.
RECEIVED_WINDOW = 256


class Host:
    """A host attached to one switch port."""

    def __init__(self, spec: HostSpec, send_fn: Callable[["Host", Packet], None]) -> None:
        self.spec = spec
        self._send_fn = send_fn
        self._handlers: Dict[int, List[ReceiveHandler]] = {}
        #: the most recent deliveries, oldest first
        self.received: Deque[Packet] = deque(maxlen=RECEIVED_WINDOW)
        #: every delivery ever made, including those out of the window
        self.received_count = 0
        self.sent_count = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def mac(self) -> MacAddress:
        return self.spec.mac

    @property
    def ip(self) -> IPv4Address:
        return self.spec.ip

    @property
    def location(self) -> Optional[GeoLocation]:
        return self.spec.location

    @property
    def access_point(self) -> tuple[str, int]:
        return (self.spec.switch, self.spec.port)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send_udp(
        self,
        dst_ip: IPv4Address,
        dport: int,
        payload: Any,
        *,
        sport: int = 40000,
        dst_mac: Optional[MacAddress] = None,
        vlan_id: int = 0,
    ) -> Packet:
        """Emit a UDP packet onto the access link.

        ``dst_mac`` defaults to the broadcast-free convention of this
        network model: L2 destination is resolved by the caller or left
        as the gateway-style placeholder (the provider's rules route on
        IP anyway).
        """
        packet = udp_packet(
            eth_src=self.mac,
            eth_dst=dst_mac if dst_mac is not None else MacAddress.from_host_index(0),
            ip_src=self.ip,
            ip_dst=dst_ip,
            sport=sport,
            dport=dport,
            payload=payload,
            vlan_id=vlan_id,
        )
        self.send_packet(packet)
        return packet

    def send_packet(self, packet: Packet) -> None:
        self.sent_count += 1
        self._send_fn(self, packet)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def register_udp_handler(self, dport: int, handler: ReceiveHandler) -> None:
        """Attach a callback for UDP packets addressed to ``dport``."""
        self._handlers.setdefault(dport, []).append(handler)

    def deliver(self, packet: Packet) -> None:
        """Called by the network when a packet reaches this host's port."""
        self.received.append(packet)
        self.received_count += 1
        for handler in self._handlers.get(packet.tp_dst, []):
            handler(packet)

    def received_on(self, dport: int) -> list[Packet]:
        return [p for p in self.received if p.tp_dst == dport]
