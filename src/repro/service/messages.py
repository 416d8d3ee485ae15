"""Wire types of the replicated-service runtime.

Three traffic classes share the simulated network (docs/SERVICE.md):

* **client traffic** — :class:`ClientRequest` (client → replica) and
  :class:`ClientReply` (replica → client). Requests are identified by
  the stable pair ``(client, req_id)`` so resubmissions and batches from
  different replicas deduplicate to exactly-once *execution* on top of
  at-least-once *delivery*;
* **checkpoint votes** — :class:`Checkpoint` bodies, signed through
  :class:`~repro.core.certificates.CertificationAuthority` in the
  service's own signature domain and exchanged between replicas; f+1
  matching votes form a checkpoint certificate
  (:mod:`repro.service.checkpoint`);
* **state transfer** — :class:`StateRequest` / :class:`StateResponse`
  carrying a certified snapshot plus the decided-vector suffix a lagging
  or restarted replica needs to rejoin.

Consensus traffic itself travels wrapped in a :class:`SlotEnvelope`
naming the log slot whose engine it is for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import EncodingError
from repro.messages.base import Message
from repro.replication.kvstore import Command


@dataclass(frozen=True, slots=True)
class SlotEnvelope:
    """Wire wrapper tagging a consensus message with its log slot."""

    slot: int
    inner: Any


# No ``slots=True`` here, deliberately (as for SignedMessage): one
# request rides in its INIT, every CURRENT's vector and the DECIDE's
# certificate. The instance __dict__ carries its canonical encoding and
# wire-record memos (sound: frozen, immutable fields), and __weakref__
# lets the envelope table (repro.net.wire) hold it. The memos never
# enter __eq__/__hash__, which see the declared fields only.
@dataclass(frozen=True)
class ClientRequest:
    """One client command; also the unit batches are made of.

    ``client`` is the client's pid (stable across the run) and
    ``req_id`` its per-client sequence number; together they identify
    the request for deduplication wherever it travels.
    """

    client: int
    req_id: int
    command: Command

    @property
    def ident(self) -> tuple[int, int]:
        return (self.client, self.req_id)

    def canonical(self) -> Any:
        if not isinstance(self.command, Command):  # the wire allows any value
            raise EncodingError(f"request command {self.command!r} is no Command")
        return ("request", self.client, self.req_id, self.command.canonical())


@dataclass(frozen=True, slots=True)
class ClientReply:
    """Commit acknowledgement for one request (every replica replies)."""

    replica: int
    client: int
    req_id: int
    slot: int


@dataclass(frozen=True, slots=True)
class Checkpoint(Message):
    """Signed checkpoint vote: "after ``count`` applied slots my service
    state digests to ``digest``". ``sender`` is inherited from
    :class:`~repro.messages.base.Message` and checked against the
    signature by the receiving replica."""

    count: int = 0
    digest: str = ""


@dataclass(frozen=True, slots=True)
class StateRequest:
    """A lagging/restarted replica asking peers for certified state."""

    replica: int
    applied: int


@dataclass(frozen=True, slots=True)
class StateResponse:
    """Certified snapshot + decided-vector suffix for a catching-up peer.

    ``snapshot``/``executed``/``store_applied`` reconstruct the exact
    :class:`~repro.replication.kvstore.KeyValueStore` and executed-id set
    at checkpoint ``count`` (the receiver *recomputes* the digest and
    checks it against the certificate — the snapshot itself is untrusted
    data); ``suffix`` holds one ``(slot, vector, justification)`` triple
    per decided vector the responder still has for slots ``>= count``.
    The justification is the responder's retained signed ``VDecide`` for
    that slot, whose certificate carries the (n − F) matching CURRENT
    quorum under the slot's own signature domain — the receiver
    re-verifies it per slot before replaying (the suffix is as untrusted
    as the snapshot), rejecting and counting forged entries.
    """

    replica: int
    count: int
    snapshot: tuple[tuple[str, Any], ...]
    executed: tuple[tuple[int, int], ...]
    store_applied: int
    certificate: Any  # CheckpointCertificate | None (count == 0)
    suffix: tuple[tuple[int, tuple, Any], ...]
