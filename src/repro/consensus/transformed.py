"""The transformed protocol: Byzantine-resilient Vector Consensus (Figure 3).

This is the Hurfin–Raynal protocol after applying the paper's methodology.
The five-module composition of Figure 1 — signed ingress and egress, the
◇M detector, the Figure-4 monitor bank, certificate bookkeeping, the
vector-certified INIT phase and the round gate — is the protocol-
independent :class:`~repro.consensus.shell.TransformedShell`; this module
holds what was designed for Hurfin–Raynal: the CURRENT / NEXT round
logic with its ``est_cert`` / ``next_cert`` / ``current_cert`` variables
and the certificate constructed at each send.

Differences from the crash protocol (Figure 2), per Section 5:

* a preliminary **INIT phase** builds a certified vector of proposals
  (Vector Consensus — decisions are vectors, giving Vector Validity);
* every quorum is ``n - F`` instead of a majority;
* every message is signed and carries a certificate witnessing both its
  values and the decision to send it;
* the coordinator-suspicion guard consults ``suspected_i ∪ faulty_i``.

One deliberate deviation, recorded in DESIGN.md §5: the paper expresses
the automaton state of a process through certificate membership of its
*received-back* own messages (``NEXT(p_i) ∈ next_cert_i``), which leaves a
window where a correct process could relay a CURRENT after broadcasting a
NEXT (its own NEXT still in flight on the loopback channel) — and FIFO
receivers would then correctly flag it. We close the window by tracking
``sent_current`` / ``sent_next`` as local booleans: truthful for correct
processes, and lies by Byzantine processes are exactly what the receivers'
monitors catch.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.monitor import PeerMonitor
from repro.consensus.shell import (  # noqa: F401  (phases re-exported)
    PHASE_INIT,
    PHASE_ROUNDS,
    TransformedShell,
)
from repro.core.certificates import Certificate, EMPTY_CERTIFICATE, SignedMessage
from repro.messages.consensus import VCurrent, VDecide, VNext


class TransformedConsensusProcess(TransformedShell):
    """One correct participant in the transformed (Figure 3) protocol."""

    DECIDE = VDecide
    ROUND_KINDS = (VCurrent, VNext)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.next_cert: Certificate = EMPTY_CERTIFICATE
        self.current_cert: Certificate = EMPTY_CERTIFICATE
        self.sent_current = False
        self.sent_next = False

    def _make_monitor(self, peer: int) -> PeerMonitor:
        return PeerMonitor(
            peer,
            self.params,
            self.authority.signature_valid,
            check_certificates=self.config.verify_certificates,
        )

    # -- round machinery (lines 10-31) ----------------------------------------------------

    def _open_round(self) -> None:
        self.sent_current = False
        self.sent_next = False
        # Line 12: the coordinator proposes, certified by est ∪ next.
        if self.pid == self.coordinator:
            self._broadcast_signed(
                VCurrent(sender=self.pid, round=self.round, est_vect=self.est_vect),
                self.est_cert.union(self.next_cert),
            )
            self.sent_current = True
        # Line 13: reset the round certificates.
        self.next_cert = EMPTY_CERTIFICATE
        self.current_cert = EMPTY_CERTIFICATE

    def _dispatch_round_message(self, message: SignedMessage) -> None:
        if isinstance(message.body, VCurrent):
            self._on_current(message)
        else:
            self._on_next(message)

    def _on_current(self, message: SignedMessage) -> None:
        # Line 16: store the signed CURRENT.
        self.current_cert = self.current_cert.add(message)
        # Line 17: adopt the first CURRENT's vector and certificate.
        if len(self.current_cert) == 1:
            assert isinstance(message.body, VCurrent)
            if message.has_full_cert:
                self.est_cert = message.full_cert()
            self.est_vect = message.body.est_vect
            # Lines 18-19: relay (q0 -> q1 for i != c).
            if (
                not self.sent_current
                and not self.sent_next
                and self.pid != self.coordinator
            ):
                self._broadcast_signed(
                    VCurrent(
                        sender=self.pid, round=self.round, est_vect=self.est_vect
                    ),
                    self.current_cert,
                )
                self.sent_current = True
        self._check_progress()

    def _on_next(self, message: SignedMessage) -> None:
        # Lines 26-27: store the signed NEXT (pruned: receivers of our
        # future certificates only need its body and signature).
        self.next_cert = self.next_cert.add(message.light())
        self._check_progress()

    def _check_progress(self) -> None:
        if self.decided:
            return
        # Lines 20-21: decide on an (n - F) CURRENT quorum. Only CURRENTs
        # carrying *our* adopted vector count: the DECIDE certificate must
        # be well-formed w.r.t. the decided vector (§5.1), and under an
        # equivocating coordinator a round can contain valid CURRENTs with
        # different vectors.
        matching = self.current_cert.filter(
            lambda sm: isinstance(sm.body, VCurrent)
            and sm.body.est_vect == self.est_vect
        )
        if len(matching.senders()) >= self._quorum():
            self._decide(self.est_vect, matching.union(self.est_cert))
            return
        current_senders = self.current_cert.senders()
        # Lines 28-29: change_mind (q1 -> q2).
        rec_from = current_senders | self.next_cert.senders()
        if (
            self.sent_current
            and not self.sent_next
            and len(rec_from) >= self._quorum()
        ):
            self._broadcast_signed(
                VNext(sender=self.pid, round=self.round),
                self.current_cert.union(self.next_cert),
            )
            self.sent_next = True
        # Line 14 exit + line 31: an (n - F) NEXT quorum ends the round.
        if len(self.next_cert.senders()) >= self._quorum():
            if not self.sent_next:
                self._broadcast_signed(
                    VNext(sender=self.pid, round=self.round), self.next_cert
                )
                self.sent_next = True
            self._begin_round(self.round + 1)

    # -- guards (lines 22-25) ---------------------------------------------------------------

    def evaluate_guards(self) -> None:
        if not self._coordinator_distrusted():
            return
        # q0 -> q2: only from the initial state (no vote sent, no CURRENT
        # received).
        if self.sent_current or self.sent_next or len(self.current_cert) > 0:
            return
        self._broadcast_signed(
            VNext(sender=self.pid, round=self.round),
            self.current_cert.union(self.next_cert).union(self.est_cert),
        )
        self.sent_next = True
        self._check_progress()
