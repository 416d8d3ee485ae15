"""The client protocol, written once: ids, quorums, resubmission.

A client is outside the trust boundary of every replica, so it never
believes one reply. :class:`ClientSession` is that rule as a state
machine with no I/O and no clock of its own:

* a ``set`` completes on acks from **f+1 distinct replicas** — at least
  one of them is correct, so the command is durably in the total order;
* a ``get`` completes once **f+1 distinct replicas** return the same
  ``(found, value)`` from their committed state;
* a ``status`` probe keeps one reply per replica and completes when
  every replica has answered (no quorum: it reports claims);
* a reply counts under the sender the *channel* authenticated (``src``),
  never under the ``replica`` field it declares about itself: a reply
  naming anyone but its sender is dropped, so one Byzantine replica
  cannot cast f+1 votes by forging its peers' names.

Drivers do the I/O and the clocks: :class:`~repro.net.client.NetClient`
over TCP (on the deterministic twin too), which also opens the reads and
status probes, and the simulator's
:class:`~repro.sim.service.ServiceClient`. Each sends what
:meth:`ClientSession.submit` returns to every replica, calls it again
after each ``request_timeout`` of silence (every call but the first is a
counted resubmission), and feeds every message it receives, with its
sender, to :meth:`ClientSession.on_reply`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.replication.kvstore import Command
from repro.service.messages import ClientReply, ClientRequest


@dataclass(slots=True, eq=False)
class PendingOp:
    """One operation in flight and the replies counted toward it."""

    kind: str  # "set", "get" or "status"
    request: Any
    reply_type: type
    need: int
    issued_at: float
    #: Times the request was handed out for sending.
    attempts: int = 0
    #: Authenticated sender -> its first vote (later ones are ignored).
    replies: dict[int, Any] = field(default_factory=dict)
    done: bool = False
    result: Any = None

    @property
    def req_id(self) -> int:
        return self.request.req_id


class ClientSession:
    """Request ids, outstanding operations and reply counting of one client."""

    def __init__(
        self, pid: int, n_replicas: int, f: int, first_req_id: int = 0
    ) -> None:
        self.pid = pid
        self.n_replicas = n_replicas
        self.f = f
        self.next_req_id = first_req_id
        #: req_id -> the operation, until it completes or is abandoned.
        self.ops: dict[int, PendingOp] = {}
        self.resubmissions = 0

    def set(self, key: str, value: Any, now: float = 0.0) -> PendingOp:
        request = ClientRequest(self.pid, self.next_req_id, Command("set", key, value))
        return self.open("set", request, ClientReply, self.f + 1, now)

    def open(
        self, kind: str, request: Any, reply_type: type, need: int, now: float = 0.0
    ) -> PendingOp:
        """Track ``request``, whose ``req_id`` is :attr:`next_req_id`, until
        ``need`` replies of ``reply_type`` settle it. The deployment's
        reads and status probes (:mod:`repro.net.messages`) are opened
        by their driver this way."""
        op = PendingOp(kind, request, reply_type, need, now)
        self.ops[request.req_id] = op
        self.next_req_id += 1
        return op

    def submit(self, req_id: int) -> Any:
        """The request to send for ``req_id`` now, or ``None`` when there
        is nothing to send: the operation is settled, or it is a status
        probe, which goes out once."""
        op = self.ops.get(req_id)
        if op is None or (op.attempts and op.kind == "status"):
            return None
        if op.attempts:
            self.resubmissions += 1
        op.attempts += 1
        return op.request

    def abandon(self, req_id: int) -> PendingOp | None:
        """Stop waiting for ``req_id`` (the driver gave up on it)."""
        return self.ops.pop(req_id, None)

    def on_reply(self, src: int, message: Any) -> PendingOp | None:
        """Count ``message``, delivered by replica ``src``; returns the
        operation it completes, else ``None``."""
        op = self.ops.get(getattr(message, "req_id", None))
        if (
            op is None
            or type(message) is not op.reply_type
            or message.client != self.pid
            or message.replica != src
            or not 0 <= src < self.n_replicas
            or src in op.replies
        ):
            return None
        if op.kind == "get":
            result = op.replies[src] = (message.found, message.value)
            # Values need not be hashable; repr groups them, and tells
            # apart the 1 and True that == would match.
            vote = repr(result)
            if sum(repr(other) == vote for other in op.replies.values()) < op.need:
                return None
        else:
            op.replies[src] = message
            if len(op.replies) < op.need:
                return None
            result = message.slot if op.kind == "set" else op.replies
        del self.ops[op.req_id]
        op.done, op.result = True, result
        return op
