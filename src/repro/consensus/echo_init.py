"""Echo-INIT variant: vector certification over reliable broadcast.

An extension of the transformed protocol (documented in DESIGN.md): the
INIT phase of Figure 3 disseminates proposals by plain (signed)
broadcast, which leaves a window for *INIT equivocation* — a Byzantine
process showing different signed proposals to different halves. The
signatures make the equivocation detectable once the branches cross, but
correct processes may meanwhile have built vectors that disagree on the
equivocator's slot.

Routing INITs through Byzantine reliable broadcast
(:mod:`repro.broadcast.reliable`) closes the window: RB's consistency
property guarantees that no two correct processes ever accept different
INITs for the same origin, so the equivocator's slot is *uniform* (one
branch everywhere, or null everywhere). Experiment E11 measures exactly
this slot divergence, plain vs echo.

Protocol changes relative to :class:`TransformedConsensusProcess`:

* the signed INIT travels inside RB ``SEND``/``ECHO``/``READY`` wrappers
  instead of directly; everything from the first round on is unchanged;
* the per-peer automata start in ``q0`` (round 1) — the INIT is no
  longer part of the peer's direct channel stream, so a CURRENT may
  legitimately arrive before the peer's INIT finishes its RB rounds;
* RB-delivered INITs still pass the signature module (RB authenticates
  the *origin channel*, the signature authenticates the *content*).
"""

from __future__ import annotations

from typing import Any

from repro.broadcast.reliable import ReliableBroadcast
from repro.consensus.monitor import PeerMonitor
from repro.consensus.transformed import TransformedConsensusProcess
from repro.core.certificates import EMPTY_CERTIFICATE, SignedMessage
from repro.messages.consensus import Init
from repro.sim.process import ProcessEnv


class EchoInitConsensusProcess(TransformedConsensusProcess):
    """Transformed consensus whose INIT phase runs over reliable broadcast."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.rb = ReliableBroadcast(f=self.params.f, deliver=self._on_rb_deliver)

    def _make_monitor(self, peer: int) -> PeerMonitor:
        # INITs no longer appear on the peers' direct channels.
        monitor = super()._make_monitor(peer)
        monitor.skip_init()
        return monitor

    def bind(self, env: ProcessEnv) -> None:
        super().bind(env)
        self.rb.attach(env)

    # -- layering: RB sits beneath the five modules ---------------------------

    def on_message(self, src: int, payload: Any) -> None:
        if self.rb.filter_message(src, payload):
            return
        super().on_message(src, payload)

    # -- INIT phase over RB ------------------------------------------------------

    def start_protocol(self) -> None:
        own_init = self.authority.make(
            Init(sender=self.pid, value=self.proposal), EMPTY_CERTIFICATE
        )
        self._vector_builder.add(own_init)
        self.rb.broadcast(own_init, tag=0)
        self._maybe_finish_init()

    def _on_rb_deliver(self, origin: int, tag: int, payload: Any) -> None:
        del tag
        # The RB layer authenticated the origin *channel*; the signature
        # module still authenticates the content.
        if not isinstance(payload, SignedMessage) or not isinstance(
            payload.body, Init
        ):
            self._declare(origin, "echo-init: RB payload is not a signed INIT")
            return
        if payload.body.sender != origin:
            self._declare(
                origin,
                "echo-init: RB-delivered INIT claims another process's identity",
            )
            return
        if not self.authority.signature_valid(payload):
            self._declare(origin, "echo-init: invalid INIT signature")
            return
        if not self.decided:
            self._on_init(payload)

    def handle_valid(self, message: SignedMessage) -> None:
        if isinstance(message.body, Init):
            # Direct-channel INITs do not exist in this variant; a signed
            # INIT outside RB is a protocol violation by its sender.
            self._declare(
                message.body.sender, "echo-init: INIT outside reliable broadcast"
            )
            return
        super().handle_valid(message)
