"""Per-peer behaviour automaton for the transformed CT protocol.

The Figure 4 construction re-applied to Chandra–Toueg's round shape. A
peer's per-round stream (on FIFO channels) is::

    ESTIMATE(r) [ -> PROPOSE(r) if the peer coordinates r ]
                [ -> ACK(r) | NACK(r) ]  -> ESTIMATE(r+1) ...

with a ``DECIDE`` terminal from any state, at most one message of each
kind per round, proposals only from the round's coordinator, acks only
after that peer could have seen a proposal, and no NACK from a round's
own coordinator (a correct process never suspects itself).
"""

from __future__ import annotations

from repro.consensus import certification_ct as certs
from repro.consensus.certification import init_message_problems
from repro.consensus.hurfin_raynal import coordinator_of
from repro.consensus.monitor import FINAL, START, PeerMonitorBase
from repro.core.automaton import BehaviorViolation
from repro.core.certificates import SignedMessage
from repro.messages.consensus import Init
from repro.messages.ct import CtAck, CtDecide, CtEstimate, CtNack, CtPropose

WAIT = "between-phases"
EST = "estimated"
PROPOSED = "proposed"
REPLIED = "replied"


class CtPeerMonitor(PeerMonitorBase):
    """``SM_p(q)`` instantiated for the transformed CT protocol."""

    RULES = (
        (START, Init, "_on_init"),
        (WAIT, CtEstimate, "_on_estimate"),
        (WAIT, CtDecide, "_on_decide"),
        (EST, CtDecide, "_on_decide"),
        (EST, CtEstimate, "_on_estimate"),
        (EST, CtPropose, "_on_propose"),
        (EST, CtAck, "_on_ack"),
        (EST, CtNack, "_on_nack"),
        (PROPOSED, CtDecide, "_on_decide"),
        (PROPOSED, CtEstimate, "_on_estimate"),
        (PROPOSED, CtAck, "_on_ack"),
        (REPLIED, CtDecide, "_on_decide"),
        (REPLIED, CtEstimate, "_on_estimate"),
    )

    # -- handlers ----------------------------------------------------------------

    def _on_init(self, message: SignedMessage) -> str:
        self._clean(init_message_problems(message, self.params, self.verify))
        self.round = 0
        return WAIT

    def _on_estimate(self, message: SignedMessage) -> str:
        body = message.body
        assert isinstance(body, CtEstimate)
        self._identity(message)
        if body.round != self.round + 1:
            raise BehaviorViolation(
                f"out-of-order: ESTIMATE for round {body.round}, the peer's "
                f"stream is leaving round {self.round}"
            )
        self._clean(certs.estimate_problems(message, self.params, self.verify))
        self.round += 1
        return EST

    def _on_propose(self, message: SignedMessage) -> str:
        self._in_round(message, "PROPOSE")
        if self.peer != coordinator_of(self.round, self.params.n):
            raise BehaviorViolation(
                f"spurious: peer {self.peer} proposed in round {self.round} "
                "without holding the coordinator seat"
            )
        self._clean(certs.propose_problems(message, self.params, self.verify))
        return PROPOSED

    def _on_ack(self, message: SignedMessage) -> str:
        self._in_round(message, "ACK")
        self._clean(certs.ack_problems(message, self.params, self.verify))
        return REPLIED

    def _on_nack(self, message: SignedMessage) -> str:
        self._in_round(message, "NACK")
        if self.peer == coordinator_of(self.round, self.params.n):
            raise BehaviorViolation(
                "misevaluation: a round's coordinator nacked itself"
            )
        return REPLIED

    def _on_decide(self, message: SignedMessage) -> str:
        self._clean(certs.decide_problems(message, self.params, self.verify))
        return FINAL

    def _in_round(self, message: SignedMessage, what: str) -> None:
        """A PROPOSE / ACK / NACK belongs to the round its ESTIMATE opened."""
        self._identity(message)
        if message.body.round != self.round:
            raise BehaviorViolation(
                f"out-of-order: {what} for round {message.body.round} in the "
                f"peer's round {self.round}"
            )
