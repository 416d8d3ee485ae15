"""Byzantine reliable broadcast (Bracha's double-echo, authenticated channels).

An extension module strengthening the paper's vector certification: the
INIT phase of Figure 3 is vulnerable to *INIT equivocation* — a Byzantine
process signing two different proposals and showing each to half the
system. The signatures make this *detectable* (the equivocation ledger),
but different correct processes may still hold different values for the
equivocator's slot. Disseminating INITs with a reliable broadcast adds
the missing **consistency** property: no two correct processes ever
deliver different messages for the same (origin, tag), and if any correct
process delivers, all do.

Protocol (Bracha 1987, over authenticated point-to-point channels,
``n > 3f``):

* the origin sends ``SEND(m)`` to all;
* on the first ``SEND`` from the origin, echo ``ECHO(m)`` to all;
* on ``ceil((n + f + 1) / 2)`` matching ``ECHO``s — or ``f + 1`` matching
  ``READY``s — send ``READY(m)`` to all (once);
* on ``2f + 1`` matching ``READY``s, deliver ``m``.

Quorum intersection makes two different messages undeliverable for one
slot: two echo quorums of size ``ceil((n+f+1)/2)`` intersect in a correct
process, which echoes at most once per slot.

The module is host-agnostic: it attaches to a
:class:`~repro.process.ProcessEnv`, consumes its own wire messages
via :meth:`filter_message`, and hands deliveries to a callback — the same
shape as the failure-detector modules, so protocols can stack it beneath
their other modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.crypto.encoding import canonical_bytes
from repro.errors import ConfigurationError, ProtocolError
from repro.messages.base import Message
from repro.process import ProcessEnv

DeliverCallback = Callable[[int, int, Any], None]  # (origin, tag, payload)


@dataclass(frozen=True, slots=True)
class RbSend(Message):
    """First step: the origin disseminates its message."""

    tag: int
    payload: Any


@dataclass(frozen=True, slots=True)
class RbEcho(Message):
    """Second step: witnesses echo what the origin showed them."""

    origin: int
    tag: int
    payload: Any


@dataclass(frozen=True, slots=True)
class RbReady(Message):
    """Third step: commitment that enough echoes were seen."""

    origin: int
    tag: int
    payload: Any


@dataclass(slots=True)
class _SlotState:
    """Per-(origin, tag) progress of one broadcast instance."""

    echoed: bool = False
    ready_sent: bool = False
    delivered: bool = False
    echoes: dict[bytes, set[int]] = field(default_factory=dict)
    readies: dict[bytes, set[int]] = field(default_factory=dict)
    payloads: dict[bytes, Any] = field(default_factory=dict)


class ReliableBroadcast:
    """One process's reliable-broadcast module.

    Args:
        f: maximum number of Byzantine processes tolerated; requires
            ``n > 3f`` (checked at attach time).
        deliver: callback invoked exactly once per delivered slot.
    """

    def __init__(self, f: int, deliver: DeliverCallback) -> None:
        self._f = f
        self._deliver = deliver
        self._env: ProcessEnv | None = None
        self._slots: dict[tuple[int, int], _SlotState] = {}
        self._next_tag = 0
        self.delivered_count = 0

    # -- wiring ------------------------------------------------------------

    @property
    def env(self) -> ProcessEnv:
        if self._env is None:
            raise ProtocolError("reliable broadcast used before attach()")
        return self._env

    def attach(self, env: ProcessEnv) -> None:
        if self._env is not None:
            raise ProtocolError("reliable broadcast attached twice")
        if env.n <= 3 * self._f:
            raise ConfigurationError(
                f"reliable broadcast needs n > 3f, got n={env.n}, f={self._f}"
            )
        self._env = env

    # -- quorum arithmetic -------------------------------------------------------

    @property
    def echo_quorum(self) -> int:
        """``ceil((n + f + 1) / 2)`` matching echoes trigger READY."""
        return math.ceil((self.env.n + self._f + 1) / 2)

    @property
    def ready_amplify(self) -> int:
        """``f + 1`` matching readies also trigger READY."""
        return self._f + 1

    @property
    def ready_deliver(self) -> int:
        """``2f + 1`` matching readies trigger delivery."""
        return 2 * self._f + 1

    # -- sending -------------------------------------------------------------------

    def broadcast(self, payload: Any, tag: int | None = None) -> int:
        """Reliably broadcast ``payload``; returns the slot tag used."""
        if tag is None:
            tag = self._next_tag
            self._next_tag += 1
        body = RbSend(sender=self.env.pid, tag=tag, payload=payload)
        for dst in range(self.env.n):
            self.env.send(dst, body)
        return tag

    # -- receiving -------------------------------------------------------------------

    def filter_message(self, src: int, payload: object) -> bool:
        """Consume RB wire traffic; returns True when the payload was ours."""
        if isinstance(payload, RbSend):
            self._on_send(src, payload)
            return True
        if isinstance(payload, RbEcho):
            self._on_echo(src, payload)
            return True
        if isinstance(payload, RbReady):
            self._on_ready(src, payload)
            return True
        return False

    def _slot(self, origin: int, tag: int) -> _SlotState:
        return self._slots.setdefault((origin, tag), _SlotState())

    def _on_send(self, src: int, body: RbSend) -> None:
        # Channels are authenticated: the SEND counts only when it arrives
        # on the origin's own channel.
        if body.sender != src:
            return
        slot = self._slot(src, body.tag)
        if slot.echoed:
            return  # echo at most once per slot — the anti-equivocation rule
        slot.echoed = True
        echo = RbEcho(
            sender=self.env.pid, origin=src, tag=body.tag, payload=body.payload
        )
        for dst in range(self.env.n):
            self.env.send(dst, echo)

    def _on_echo(self, src: int, body: RbEcho) -> None:
        slot = self._slot(body.origin, body.tag)
        key = canonical_bytes(body.payload)
        slot.payloads.setdefault(key, body.payload)
        witnesses = slot.echoes.setdefault(key, set())
        witnesses.add(src)
        if len(witnesses) >= self.echo_quorum:
            self._send_ready(slot, body.origin, body.tag, key)

    def _on_ready(self, src: int, body: RbReady) -> None:
        slot = self._slot(body.origin, body.tag)
        key = canonical_bytes(body.payload)
        slot.payloads.setdefault(key, body.payload)
        witnesses = slot.readies.setdefault(key, set())
        witnesses.add(src)
        if len(witnesses) >= self.ready_amplify:
            self._send_ready(slot, body.origin, body.tag, key)
        if len(witnesses) >= self.ready_deliver and not slot.delivered:
            slot.delivered = True
            self.delivered_count += 1
            self.env.trace.record(
                self.env.now,
                "rb-deliver",
                process=self.env.pid,
                origin=body.origin,
                tag=body.tag,
            )
            self._deliver(body.origin, body.tag, slot.payloads[key])

    def _send_ready(
        self, slot: _SlotState, origin: int, tag: int, key: bytes
    ) -> None:
        if slot.ready_sent:
            return
        slot.ready_sent = True
        ready = RbReady(
            sender=self.env.pid, origin=origin, tag=tag, payload=slot.payloads[key]
        )
        for dst in range(self.env.n):
            self.env.send(dst, ready)
