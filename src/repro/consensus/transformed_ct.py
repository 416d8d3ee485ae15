"""The methodology applied a second time: transformed Chandra–Toueg.

The paper insists its contribution is the *methodology*, not the
transformed protocol of Figure 3. This module substantiates the claim by
re-applying the recipe to the other classic ◇S protocol. Everything
Figure 1 fixes — signed ingress and egress, the vector-certified INIT
phase, the round gate, the DECIDE relay, ``suspected_i ∪ faulty_i`` — is
inherited from :class:`~repro.consensus.shell.TransformedShell`; what is
designed for Chandra–Toueg is:

1. the certificates (:mod:`certification_ct`, hand-designed per the
   Section 3 guidelines) attached at each send below;
2. the per-peer behaviour automaton (:mod:`monitor_ct`);
3. ``COORDINATOR_KINDS``: for the round's coordinator only its *expected*
   messages (PROPOSE / DECIDE) re-arm the ◇M timer, so a chatty
   coordinator withholding its proposal is still "mute w.r.t. the
   algorithm" [6];
4. the estimate / propose / ack-or-nack round logic over ``n - F``
   quorums.

Two CT-specific adaptations (recorded in DESIGN.md §5):

* **all-to-all rounds** — estimates and acks are broadcast rather than
  sent to the coordinator only, giving the protocol the *regular
  communication pattern* the methodology requires (and letting every
  process, not only the coordinator, evaluate the decision condition);
* **proposal extraction** — a process that missed the coordinator's
  PROPOSE (e.g. a Byzantine coordinator sends it to half the system)
  recovers it from the certificate of any valid ACK, which embeds the
  acknowledged proposal. Partial proposal delivery therefore costs
  nothing; *withheld* proposals are handled by the protocol-relative ◇M.

The transformed CT protocol's phase-2 justification makes the
coordinator's *selection* verifiable (receivers re-run the highest-ts
rule over the attached estimate quorum) — a check the HR transformation
has no analogue for.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.certification_ct import (
    ack_problems,
    build_justification,
    select_proposal,
)
from repro.consensus.monitor_ct import CtPeerMonitor
from repro.consensus.shell import TransformedShell
from repro.core.certificates import Certificate, EMPTY_CERTIFICATE, SignedMessage
from repro.messages.ct import CtAck, CtDecide, CtEstimate, CtNack, CtPropose


class TransformedCtProcess(TransformedShell):
    """One correct participant in the transformed Chandra–Toueg protocol."""

    DECIDE = CtDecide
    ROUND_KINDS = (CtEstimate, CtPropose, CtAck, CtNack)
    COORDINATOR_KINDS = (CtPropose, CtDecide)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # ``est_cert`` witnesses the pair (est_vect, ts).
        self.ts = 0
        self.replied = False
        self._proposed = False
        self._estimates: dict[int, SignedMessage] = {}  # this round, by sender
        self._replies: dict[int, bool] = {}  # sender -> is_ack
        self._ack_messages: list[SignedMessage] = []
        self._round_propose: SignedMessage | None = None

    def _make_monitor(self, peer: int) -> CtPeerMonitor:
        return CtPeerMonitor(
            peer,
            self.params,
            self.authority.signature_valid,
            check_certificates=self.config.verify_certificates,
        )

    # -- round machinery ------------------------------------------------------------------

    def _open_round(self) -> None:
        self.replied = False
        self._proposed = False
        self._estimates = {}
        self._replies = {}
        self._ack_messages = []
        self._round_propose = None
        # Phase 1 (all-to-all): broadcast the certified estimate.
        self._broadcast_signed(
            CtEstimate(
                sender=self.pid,
                round=self.round,
                est_vect=self.est_vect,
                ts=self.ts,
            ),
            self.est_cert,
        )

    def _dispatch_round_message(self, message: SignedMessage) -> None:
        body = message.body
        if isinstance(body, CtEstimate):
            self._on_estimate(message)
        elif isinstance(body, CtPropose):
            self._on_propose(message)
        elif isinstance(body, CtAck):
            self._on_ack(message)
        elif isinstance(body, CtNack):
            self._on_nack(message)

    def _on_estimate(self, message: SignedMessage) -> None:
        # Phase 2 trigger (coordinator only).
        if self.pid != self.coordinator or self._proposed:
            return
        self._estimates.setdefault(message.body.sender, message)
        if len(self._estimates) < self._quorum():
            return
        estimates = list(self._estimates.values())
        picked = select_proposal(estimates)
        assert isinstance(picked.body, CtEstimate)
        self._proposed = True
        self._broadcast_signed(
            CtPropose(
                sender=self.pid, round=self.round, est_vect=picked.body.est_vect
            ),
            build_justification(estimates),
        )

    def _on_propose(self, message: SignedMessage) -> None:
        # Phase 3, positive branch: adopt and acknowledge.
        if self._round_propose is None:
            self._round_propose = message
        if self.replied:
            return
        assert isinstance(message.body, CtPropose)
        self.est_vect = message.body.est_vect
        self.ts = self.round
        self.est_cert = Certificate((message,))
        self.replied = True
        self._broadcast_signed(
            CtAck(sender=self.pid, round=self.round), Certificate((message,))
        )
        self._check_completion()

    def _on_ack(self, message: SignedMessage) -> None:
        self._replies[message.body.sender] = True
        # Decide certificates only need the acks' bodies and signatures.
        self._ack_messages.append(message.light())
        # Proposal extraction: recover a proposal the coordinator withheld
        # from us out of the acknowledger's certificate.
        if self._round_propose is None and message.has_full_cert:
            embedded = message.full_cert().of_type(CtPropose)
            if embedded and not ack_problems(
                message, self.params, self.authority.signature_valid
            ):
                self._on_propose(embedded[0])
                if self.decided:
                    return
        self._check_completion()

    def _on_nack(self, message: SignedMessage) -> None:
        self._replies[message.body.sender] = False
        self._check_completion()

    def _check_completion(self) -> None:
        # Phase 4, evaluated by everyone (all-to-all adaptation).
        if self.decided or len(self._replies) < self._quorum():
            return
        ack_senders = [pid for pid, is_ack in self._replies.items() if is_ack]
        if len(ack_senders) >= self._quorum() and self._round_propose is not None:
            proposal = self._round_propose
            assert isinstance(proposal.body, CtPropose)
            self._decide(
                proposal.body.est_vect,
                Certificate((proposal, *self._ack_messages)),
            )
            return
        self._begin_round(self.round + 1)

    # -- suspicion guard -------------------------------------------------------------------

    def evaluate_guards(self) -> None:
        if self.replied or not self._coordinator_distrusted():
            return
        self.replied = True
        self._broadcast_signed(
            CtNack(sender=self.pid, round=self.round), EMPTY_CERTIFICATE
        )
        self._check_completion()
