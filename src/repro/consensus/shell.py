"""What Figure 1 fixes: the protocol-independent shell of a transformed process.

The paper's methodology turns a crash-tolerant round-based protocol into
an arbitrary-fault-tolerant one by composing five modules whose structure
does not depend on the protocol (Figure 1):

* the **signature module** (`CertificationAuthority` + the ingress check
  :meth:`TransformedShell._admit_signature`) signs egress and
  authenticates ingress, discarding messages whose signature is
  inconsistent with their identity field;
* the **muteness failure detection module** (a ◇M detector) maintains
  ``suspected_i``;
* the **non-muteness failure detection module**
  (:class:`~repro.consensus.monitor.MonitorBank` over the per-peer
  automata) maintains ``faulty_i`` and drops wrong messages;
* the **certification module** appends a certificate to every send and
  stores the received ones;
* the **round-based protocol module** is the transformed algorithm.

:class:`TransformedShell` owns all of that once: the wiring, the ingress
order, signed egress, the vector-certified INIT phase (Section 5.1), the
round gate with its buffering of early votes (footnote 5), the DECIDE
relay and the ``suspected_i ∪ faulty_i`` test. What is designed per
protocol — "in the particular context of the protocol to transform" — is
a small descriptor on the subclass:

* ``DECIDE``, ``ROUND_KINDS``, ``COORDINATOR_KINDS`` — its message kinds;
* ``_make_monitor(peer)`` — its Figure-4 automaton;
* ``_open_round()`` and ``_dispatch_round_message(message)`` — its
  per-round state and handlers;
* ``evaluate_guards()`` — what it does once
  :meth:`TransformedShell._coordinator_distrusted` holds.
"""

from __future__ import annotations

from typing import Any, ClassVar

from repro.consensus.base import ConsensusProcess
from repro.consensus.hurfin_raynal import coordinator_of
from repro.consensus.monitor import MonitorBank, PeerMonitorBase
from repro.core.certificates import (
    Certificate,
    CertificationAuthority,
    EMPTY_CERTIFICATE,
    SignedMessage,
)
from repro.core.modules import ModuleConfig
from repro.core.specs import SystemParameters
from repro.core.vector_certification import CertifiedVectorBuilder
from repro.detectors.base import FailureDetector
from repro.messages.base import Message
from repro.messages.consensus import Init, Vector
from repro.observability.registry import (
    MODULE_CERTIFICATION,
    MODULE_PROTOCOL,
    MODULE_SIGNATURE,
    NULL_METRICS,
)
from repro.sim.process import ProcessEnv

#: Protocol phases.
PHASE_INIT = "init"
PHASE_ROUNDS = "rounds"


class TransformedShell(ConsensusProcess):
    """The five-module pipeline around a protocol-specific round module."""

    #: The protocol's decision message kind (``est_vect`` payload).
    DECIDE: ClassVar[type[Message]]
    #: The kinds exchanged inside a round (each carries ``round``).
    ROUND_KINDS: ClassVar[tuple[type[Message], ...]]
    #: ◇M is protocol-relative: the kinds that re-arm the timer of the
    #: round's *coordinator* — a chatty coordinator withholding the
    #: messages the algorithm expects of it is still mute w.r.t. the
    #: algorithm [6]. ``None``: every kind does.
    COORDINATOR_KINDS: ClassVar[tuple[type[Message], ...] | None] = None

    def __init__(
        self,
        proposal: Any,
        params: SystemParameters,
        authority: CertificationAuthority,
        detector: FailureDetector,
        suspicion_poll: float = 0.5,
        config: ModuleConfig | None = None,
    ) -> None:
        super().__init__(proposal, detector, suspicion_poll)
        self.params = params
        self.authority = authority
        self.config = config if config is not None else ModuleConfig.full()
        self.monitor_bank = MonitorBank(
            own_pid=authority.pid,
            params=params,
            verify=authority.signature_valid,
            make_monitor=self._make_monitor,
            use_ledger=self.config.track_equivocation,
        )
        self.phase = PHASE_INIT
        self.round = 0
        self.est_vect: Vector | None = None
        self.est_cert: Certificate = EMPTY_CERTIFICATE
        self._vector_builder = CertifiedVectorBuilder(params)
        self._future: dict[int, list[SignedMessage]] = {}
        #: The signed DECIDE this process broadcast when it decided. Its
        #: certificate carries the quorum that justified the decision, so
        #: the message doubles as transferable per-slot evidence: the
        #: service state-transfer path re-verifies it before replaying a
        #: decided vector it did not witness (docs/SERVICE.md).
        self.decision_justification: SignedMessage | None = None
        # Per-module metric scopes; rebound in bind() once a world exists.
        self._sig_metrics = NULL_METRICS
        self._cert_metrics = NULL_METRICS
        self._proto_metrics = NULL_METRICS

    def bind(self, env: ProcessEnv) -> None:
        super().bind(env)
        self._sig_metrics = env.metrics.scope(MODULE_SIGNATURE, self.pid)
        self._cert_metrics = env.metrics.scope(MODULE_CERTIFICATION, self.pid)
        self._proto_metrics = env.metrics.scope(MODULE_PROTOCOL, self.pid)
        self.monitor_bank.attach_metrics(env.metrics, self.pid)
        # Export the signature-verdict cache's hit/miss counters. The
        # scheme (and hence its cache) may be shared by several processes
        # of one simulated world; attach is first-bind-wins, so the
        # counters land on one scope instead of being split.
        self.authority.scheme.cache.attach_metrics(self._sig_metrics)

    # -- what a protocol supplies ---------------------------------------------

    def _make_monitor(self, peer: int) -> PeerMonitorBase:
        """Build the behaviour automaton this process runs for ``peer``."""
        raise NotImplementedError

    def _open_round(self) -> None:
        """Reset the per-round state and make the round's opening send."""
        raise NotImplementedError

    def _dispatch_round_message(self, message: SignedMessage) -> None:
        """Handle a ``ROUND_KINDS`` message of the current round."""
        raise NotImplementedError

    # -- derived views -------------------------------------------------------

    @property
    def faulty(self) -> frozenset[int]:
        """``faulty_i`` — maintained by the non-muteness module."""
        return self.monitor_bank.faulty

    @property
    def coordinator(self) -> int:
        return coordinator_of(self.round, self.n)

    def _quorum(self) -> int:
        return self.params.quorum

    def _coordinator_distrusted(self) -> bool:
        """The shared guard preamble: mid-round, undecided, not itself the
        coordinator, and the coordinator is in ``suspected_i ∪ faulty_i``."""
        if self.decided or self.phase != PHASE_ROUNDS:
            return False
        coordinator = self.coordinator
        if coordinator == self.pid:
            return False
        suspected = self.suspected if self.config.detect_muteness else frozenset()
        return coordinator in suspected or coordinator in self.faulty

    # -- the five-module ingress pipeline (Figure 1) ------------------------------

    def on_message(self, src: int, payload: Any) -> None:
        # The detection modules stay live even after the decision — they
        # sit upstream of the protocol module in Figure 1, and late
        # evidence of a fault still belongs in ``faulty_i``.
        # 1. Signature module.
        message = self._admit_signature(src, payload)
        if message is None:
            return
        # 2. Muteness failure detection module.
        kinds = self.COORDINATOR_KINDS
        if self.detector is not None and (
            kinds is None
            or self.phase != PHASE_ROUNDS
            or src != self.coordinator
            or isinstance(message.body, kinds)
        ):
            self.detector.on_protocol_message(src)
        # 3. Non-muteness failure detection module (Figure 4 automata).
        if self.config.monitor_behavior and not self.monitor_bank.admit(
            src, message, self.now
        ):
            self.evaluate_guards()  # the coordinator may just have turned faulty
            return
        # 4.+5. Certification module updates and protocol module, which are
        # merged in Figure 3 exactly as here.
        if not self.decided:
            self.handle_valid(message)

    def _admit_signature(self, src: int, payload: Any) -> SignedMessage | None:
        """The signature module's ingress check.

        A payload that is not a signed message, claims an identity other
        than its channel of arrival, or fails verification is discarded
        and its (channel-identified) sender is declared faulty.
        """
        if not isinstance(payload, SignedMessage):
            self._sig_metrics.inc("messages_rejected")
            self._declare(src, "signature module: unsigned payload")
            return None
        if not self.config.verify_signatures:
            return payload  # ablated: admit without authentication (E8)
        if payload.body.sender != src:
            self._sig_metrics.inc("messages_rejected")
            self._declare(
                src,
                f"signature module: identity field {payload.body.sender} "
                f"inconsistent with the sending channel {src}",
            )
            return None
        with self._sig_metrics.span("verify"):
            valid = self.authority.signature_valid(payload)
        if not valid:
            self._sig_metrics.inc("messages_rejected")
            self._declare(src, "signature module: invalid signature")
            return None
        self._sig_metrics.inc("messages_verified")
        return payload

    def _declare(self, culprit: int, reason: str) -> None:
        if culprit == self.pid:
            return
        before = culprit in self.monitor_bank.faulty
        self.monitor_bank.declare(culprit, reason, self.now)
        if not before:
            self.record("declare_faulty", target=culprit, reason=reason)
        self.evaluate_guards()

    # -- egress: sign, certify, broadcast ----------------------------------------

    def _broadcast_signed(self, body: Message, cert: Certificate) -> SignedMessage:
        with self._sig_metrics.span("sign"):
            message = self.authority.make(body, cert)
        self._sig_metrics.inc("messages_signed")
        round_label = self.round if self.phase == PHASE_ROUNDS else None
        self._cert_metrics.inc("certificates_attached", round=round_label)
        self._cert_metrics.observe("certificate_entries", len(cert))
        self.broadcast(message)
        return message

    def _decide(self, vector: Vector, cert: Certificate) -> None:
        """Broadcast the signed, certified DECIDE, then decide ``vector``."""
        self.decision_justification = self._broadcast_signed(
            self.DECIDE(sender=self.pid, est_vect=vector), cert
        )
        self.decide_value(vector, round_number=self.round)

    # -- INIT phase: the certified vector of proposals (Section 5.1) --------------

    def start_protocol(self) -> None:
        # Empty vector; broadcast the signed INIT. The own INIT is also
        # recorded directly: Proposition 1 requires ``est_vect_i[i] = v_i``,
        # which must not depend on the loopback delivery winning the race
        # into the first n - F arrivals.
        own_init = self._broadcast_signed(
            Init(sender=self.pid, value=self.proposal), EMPTY_CERTIFICATE
        )
        self._vector_builder.add(own_init)

    def _on_init(self, message: SignedMessage) -> None:
        if self.phase != PHASE_INIT:
            return  # straggler INIT after the vector was fixed: ignored
        self._vector_builder.add(message)
        self._maybe_finish_init()

    def _maybe_finish_init(self) -> None:
        if self.phase != PHASE_INIT or not self._vector_builder.ready:
            return
        self.est_vect, self.est_cert = self._vector_builder.build()
        self.record("vector-built", vector=self.est_vect)
        self.phase = PHASE_ROUNDS
        self._begin_round(1)

    # -- protocol module: the round gate ------------------------------------------

    def handle_valid(self, message: SignedMessage) -> None:
        body = message.body
        if isinstance(body, self.DECIDE):
            self._on_decide(message)
            return
        if isinstance(body, Init):
            self._on_init(message)
            return
        if not isinstance(body, self.ROUND_KINDS):
            return  # unknown type; monitors only admit protocol messages
        if self.phase == PHASE_INIT or body.round > self.round:
            # A vote of a later round — or any vote while we are still
            # collecting INITs (a fast peer finished its INIT phase
            # first): buffer it.
            self._proto_metrics.inc("messages_buffered")
            self._future.setdefault(body.round, []).append(message)
        elif body.round < self.round:
            self._proto_metrics.inc("messages_stale")  # stale vote (footnote 5)
        else:
            self._dispatch_round_message(message)

    def _begin_round(self, round_number: int) -> None:
        self.round = round_number
        self._proto_metrics.inc("rounds_started", round=round_number)
        notify = getattr(self.detector, "notify_round", None)
        if notify is not None:
            notify(round_number)  # round-aware ◇M variants scale patience
        self.record("round-start", round=round_number)
        self._open_round()
        self._replay_buffered()
        if not self.decided:
            self.evaluate_guards()

    def _replay_buffered(self) -> None:
        for message in self._future.pop(self.round, []):
            if self.decided:
                return
            self._dispatch_round_message(message)

    def _on_decide(self, message: SignedMessage) -> None:
        # Relay the DECIDE with the same certificate, then decide. (A
        # pruned DECIDE certificate would have been rejected upstream.)
        if isinstance(message.cert, Certificate):
            self._decide(message.body.est_vect, message.cert)
