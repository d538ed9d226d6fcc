"""Client-side software: the query library and the auth responder.

:class:`RVaaSClient` is the library a client runs on (one of) its hosts:
it seals queries to the RVaaS public key, sends them as magic-header
packets, and verifies/decrypts the signed integrity replies.

:class:`AuthResponder` is the §IV-A3 user-space daemon: "clients run a
software which responds to our authentication requests, in user space,
publishing themselves by sending a UDP packet".  :class:`SilentResponder`
models a host that ignores challenges — the case the issued-request count
in the reply exposes.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.core.protocol import (
    AuthChallenge,
    AuthReply,
    QueryRequest,
    QueryResponse,
    SealedNotice,
    SealedResponse,
    ViolationNotice,
    seal_request,
    sign_auth_reply,
    unseal_notice,
    unseal_response,
    verify_challenge,
)
from repro.core.queries import Query
from repro.crypto.enclave import AttestationVerifier, Measurement, Quote
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.sign import SignatureError
from repro.dataplane.host import Host
from repro.netlib.constants import RVAAS_AUTH_PORT, RVAAS_MAGIC_PORT
from repro.netlib.packet import Packet

from repro.core.inband import RVAAS_SERVICE_IP

#: Answered handles a client keeps; older ones fall out of the window,
#: so a long-lived client holds bounded state.
COMPLETED_WINDOW = 256


@dataclass
class QueryHandle:
    """Tracks one outstanding query until its verified answer arrives."""

    nonce: int
    query: Query
    sent_at: float
    response: Optional[QueryResponse] = None
    answered_at: Optional[float] = None
    error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.response is not None or self.error is not None

    @property
    def latency(self) -> Optional[float]:
        if self.answered_at is None:
            return None
        return self.answered_at - self.sent_at


class AttestationFailure(Exception):
    """The service failed remote attestation — do not trust its key."""


class RVaaSClient:
    """The client library bound to one host."""

    def __init__(
        self,
        host: Host,
        client_name: str,
        keypair: KeyPair,
        rvaas_public: PublicKey,
        *,
        rng: Optional[random.Random] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.host = host
        self.client_name = client_name
        self.keypair = keypair
        self.rvaas_public = rvaas_public
        self.rng = rng or random.Random(hash(client_name) & 0xFFFF)
        self._clock = clock or (lambda: 0.0)
        self._pending: Dict[int, QueryHandle] = {}
        self._callbacks: Dict[int, Callable[[QueryHandle], None]] = {}
        #: the most recent answered handles, oldest first
        self.completed: Deque[QueryHandle] = deque(maxlen=COMPLETED_WINDOW)
        self.notices: List[ViolationNotice] = []
        self._notice_callbacks: List[Callable[[ViolationNotice], None]] = []
        self._nonces = itertools.count(self.rng.getrandbits(32) << 8)
        host.register_udp_handler(RVAAS_MAGIC_PORT, self._on_response_packet)

    # ------------------------------------------------------------------
    # Attestation (establishing trust in the service key)
    # ------------------------------------------------------------------

    @staticmethod
    def verify_service(
        quote: Quote,
        service_key: PublicKey,
        expected_measurement: Measurement,
        verifier: AttestationVerifier,
    ) -> None:
        """Check the quote proves the genuine RVaaS code holds ``service_key``.

        Raises :class:`AttestationFailure` otherwise.  Clients call this
        once before trusting any response signature (§IV-A: "Through
        attestation, the client can verify that RVaaS is the one that
        securely responds to its queries").
        """
        from repro.crypto.enclave import AttestationError

        try:
            verifier.verify_quote(quote, expected_measurement)
        except AttestationError as exc:
            raise AttestationFailure(str(exc)) from exc
        if quote.report_data != service_key.fingerprint():
            raise AttestationFailure(
                "quote does not bind the presented service key"
            )

    # ------------------------------------------------------------------
    # Query submission (Fig. 1, step 1)
    # ------------------------------------------------------------------

    def submit(
        self,
        query: Query,
        on_answer: Optional[Callable[[QueryHandle], None]] = None,
    ) -> QueryHandle:
        """Seal and send one query; the handle resolves when answered."""
        nonce = next(self._nonces)
        request = QueryRequest(
            client=self.client_name,
            query=query,
            nonce=nonce,
            sent_at=self._clock(),
        )
        sealed = seal_request(
            request, self.rvaas_public, self.keypair.private, self.rng
        )
        handle = QueryHandle(nonce=nonce, query=query, sent_at=self._clock())
        self._pending[nonce] = handle
        if on_answer is not None:
            self._callbacks[nonce] = on_answer
        self.host.send_udp(
            RVAAS_SERVICE_IP,
            RVAAS_MAGIC_PORT,
            sealed,
            sport=RVAAS_MAGIC_PORT,
        )
        return handle

    # ------------------------------------------------------------------
    # Response handling (Fig. 2, step 4)
    # ------------------------------------------------------------------

    def on_notice(self, callback: Callable[[ViolationNotice], None]) -> None:
        """Register a callback for pushed violation notices."""
        self._notice_callbacks.append(callback)

    def _on_response_packet(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, SealedNotice):
            self._on_notice_packet(payload)
            return
        if not isinstance(payload, SealedResponse):
            return
        try:
            response = unseal_response(
                payload, self.keypair.private, self.rvaas_public
            )
        except (SignatureError, ValueError):
            # Forged or corrupted reply: ignore; the matching handle stays
            # pending, which the client observes as a timeout.
            return
        handle = self._pending.pop(response.nonce, None)
        if handle is None:
            return
        handle.response = response
        handle.answered_at = self._clock()
        self.completed.append(handle)
        callback = self._callbacks.pop(response.nonce, None)
        if callback is not None:
            callback(handle)

    def _on_notice_packet(self, sealed: SealedNotice) -> None:
        try:
            notice = unseal_notice(
                sealed, self.keypair.private, self.rvaas_public
            )
        except (SignatureError, ValueError):
            return  # forged push alert: ignored
        if notice.client != self.client_name:
            return
        self.notices.append(notice)
        for callback in self._notice_callbacks:
            callback(notice)

    def pending_count(self) -> int:
        return len(self._pending)


class AuthResponder:
    """The per-host daemon answering RVaaS authentication requests."""

    def __init__(
        self,
        host: Host,
        client_name: str,
        keypair: KeyPair,
        rvaas_public: PublicKey,
    ) -> None:
        self.host = host
        self.client_name = client_name
        self.keypair = keypair
        self.rvaas_public = rvaas_public
        self.challenges_answered = 0
        self.challenges_rejected = 0
        host.register_udp_handler(RVAAS_AUTH_PORT, self._on_challenge)

    def _on_challenge(self, packet: Packet) -> None:
        challenge = packet.payload
        if not isinstance(challenge, AuthChallenge):
            return
        if not verify_challenge(challenge, self.rvaas_public):
            # Not from the genuine service — never disclose presence to
            # an unauthenticated prober (topology confidentiality).
            self.challenges_rejected += 1
            return
        reply = sign_auth_reply(
            AuthReply(
                host=self.host.name,
                client=self.client_name,
                nonce=challenge.nonce,
                round_id=challenge.round_id,
            ),
            self.keypair.private,
        )
        self.challenges_answered += 1
        self.host.send_udp(
            RVAAS_SERVICE_IP,
            RVAAS_AUTH_PORT,
            reply,
            sport=RVAAS_AUTH_PORT,
        )


class SilentResponder:
    """A host that receives challenges but never answers (untrusted client).

    The paper's model allows clients that "may for example not inform the
    sender about having received packets"; the issued-request count in
    the integrity reply makes such silence visible.
    """

    def __init__(self, host: Host) -> None:
        self.host = host
        self.challenges_ignored = 0
        host.register_udp_handler(RVAAS_AUTH_PORT, self._on_challenge)

    def _on_challenge(self, packet: Packet) -> None:
        if isinstance(packet.payload, AuthChallenge):
            self.challenges_ignored += 1
