"""Non-muteness failure detection for the transformed protocol (Figure 4).

For each peer ``p_k``, process ``p_i`` runs a :class:`PeerMonitor` — the
state machine ``SM_pi(p_k)`` of the paper — over the stream of signed
messages received from ``p_k``. Because channels are FIFO, that stream
reflects ``p_k``'s send order, so the monitor can track which round
``p_k`` is in and which automaton state (q0 / q1 / q2) it occupies, and
flag:

* **out-of-order messages** — a type not enabled in the current state
  (duplicated CURRENT, a vote for a skipped round, traffic after DECIDE,
  a second INIT, ...);
* **wrong expected messages** — enabled type but wrong syntax or a
  certificate that is not well-formed w.r.t. its arguments or its send
  decision (the ``PF_{a,b}`` predicates, implemented by the analysers in
  :mod:`repro.consensus.certification`).

States mirror Figure 4: ``start`` (before INIT), per-round ``q0`` (no vote
sent), ``q1`` (CURRENT sent), ``q2`` (NEXT sent), ``final`` (DECIDE seen)
and the absorbing ``faulty``. The ``r -> r+1`` arcs of the figure are the
round-rollover transitions out of ``q2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

from repro.consensus import certification as certs
from repro.core.automaton import FAULTY, BehaviorViolation, StateMachine, Step
from repro.core.certificates import SignedMessage
from repro.core.specs import SystemParameters
from repro.consensus.certification import PredicateCache, SignatureCheck
from repro.messages.base import Message
from repro.messages.consensus import Init, VCurrent, VDecide, VNext
from repro.observability.registry import (
    MODULE_CERTIFICATION,
    MODULE_MONITOR,
    MetricsRegistry,
    NULL_METRICS,
)

START = "start"
Q0 = "q0"
Q1 = "q1"
Q2 = "q2"
FINAL = "final"


@dataclass(frozen=True, slots=True)
class FaultReport:
    """A declaration that ``culprit`` exhibited a non-muteness failure."""

    culprit: int
    reason: str
    time: float


class PeerMonitorBase:
    """``SM_p(q)``: the behaviour automaton ``p`` runs for one peer ``q``.

    What every instantiation of the Section 3 construction shares: the
    table-driven machine, the fault verdict, the metrics binding, the
    identity check and the certificate verdict. A protocol supplies the
    transition table :attr:`RULES` and the handlers it names.
    """

    #: Figure 4 as data: ``(state, message kind, handler name)`` rows. A
    #: ``(state, kind)`` pair without a row is an out-of-order receipt.
    RULES: ClassVar[tuple[tuple[str, type[Message], str], ...]] = ()

    def __init__(
        self,
        peer: int,
        params: SystemParameters,
        verify: SignatureCheck,
        check_certificates: bool = True,
    ) -> None:
        self.peer = peer
        self.params = params
        self.verify = verify
        self.check_certificates = check_certificates
        self.round = 0
        # Clean-verdict memo of the owning bank, shared with its sibling
        # monitors (same verify, same key domain — docs/PERFORMANCE.md).
        self.pf_cache: PredicateCache | None = None
        # Certification-module accounting; rebound by the owning bank
        # once the hosting process joins a world.
        self.cert_metrics = NULL_METRICS
        self._machine = StateMachine(initial=START)
        for state, kind, handler in self.RULES:
            self._machine.add_rule(state, kind, getattr(self, handler))

    def attach_metrics(self, cert_metrics) -> None:
        """Bind the certification-module metrics scope (host's pid)."""
        self.cert_metrics = cert_metrics

    @property
    def state(self) -> str:
        return self._machine.state

    @property
    def faulty(self) -> bool:
        return self._machine.faulty

    @property
    def fault_reason(self) -> str | None:
        return self._machine.fault_reason

    def feed(self, message: SignedMessage) -> Step:
        """Advance on a receipt from this peer (signature pre-checked)."""
        return self._machine.feed(message)

    def _identity(self, message: SignedMessage, what: str = "message") -> None:
        if message.body.sender != self.peer:
            raise BehaviorViolation(
                f"identity mismatch: {what} claims sender "
                f"{message.body.sender} on the channel of peer {self.peer}"
            )

    def _clean(self, problems: list[str]) -> None:
        if not self.check_certificates:
            return
        self.cert_metrics.inc("certificates_checked", round=self.round)
        if problems:
            self.cert_metrics.inc("certificates_rejected", round=self.round)
            raise BehaviorViolation("; ".join(problems))


class PeerMonitor(PeerMonitorBase):
    """The Figure 4 automaton of the transformed Hurfin–Raynal protocol."""

    RULES = (
        (START, Init, "_on_init"),
        (Q0, VDecide, "_on_decide"),
        (Q1, VDecide, "_on_decide"),
        (Q2, VDecide, "_on_decide"),
        (Q0, VCurrent, "_on_current_same_round"),
        (Q0, VNext, "_on_next_same_round"),
        (Q1, VNext, "_on_next_same_round"),
        (Q2, VCurrent, "_on_current_new_round"),
        (Q2, VNext, "_on_next_new_round"),
        # q1 receiving a second CURRENT and final receiving anything have
        # no rows on purpose: those receipts are out-of-order faults.
    )

    def skip_init(self) -> None:
        """Open the stream directly in round 1 / q0.

        For variants that move the INIT phase off-channel (echo-INIT over
        reliable broadcast): the peer's direct stream then never carries
        its INIT.
        """
        self._machine.force_state(Q0)
        self.round = 1

    # -- handlers -------------------------------------------------------------------

    def _on_init(self, message: SignedMessage) -> str:
        self._clean(self._analyse(certs.init_message_problems, message))
        self.round = 1
        return Q0

    def _on_current_same_round(self, message: SignedMessage) -> str:
        self._check_current(message, expected_round=self.round)
        return Q1

    def _on_current_new_round(self, message: SignedMessage) -> str:
        self._check_current(message, expected_round=self.round + 1)
        self.round += 1
        return Q1

    def _on_next_same_round(self, message: SignedMessage) -> str:
        self._check_next(message, expected_round=self.round)
        return Q2

    def _on_next_new_round(self, message: SignedMessage) -> str:
        self._check_next(message, expected_round=self.round + 1)
        self.round += 1
        return Q2

    def _on_decide(self, message: SignedMessage) -> str:
        self._clean(self._analyse(certs.decide_message_problems, message))
        return FINAL

    # -- shared checks ------------------------------------------------------------------

    def _check_current(self, message: SignedMessage, expected_round: int) -> None:
        body = message.body
        assert isinstance(body, VCurrent)
        if body.round != expected_round:
            raise BehaviorViolation(
                f"out-of-order: CURRENT for round {body.round} while the peer's "
                f"stream is at round {expected_round} "
                "(skipped or repeated round)"
            )
        self._identity(message, "CURRENT")
        self._clean(self._analyse(certs.current_message_problems, message))

    def _check_next(self, message: SignedMessage, expected_round: int) -> None:
        body = message.body
        assert isinstance(body, VNext)
        if body.round != expected_round:
            raise BehaviorViolation(
                f"out-of-order: NEXT for round {body.round} while the peer's "
                f"stream is at round {expected_round}"
            )
        self._identity(message, "NEXT")
        self._clean(self._analyse(certs.next_message_problems, message))

    def _analyse(self, predicate, message: SignedMessage) -> list[str]:
        """Run one PF predicate under the certification span timer."""
        with self.cert_metrics.span("pf_predicate"):
            return predicate(message, self.params, self.verify, cache=self.pf_cache)


class EquivocationLedger:
    """Cross-channel uniqueness tracking of signed per-round messages.

    A correct process signs at most one CURRENT and one NEXT per round and
    one INIT overall. Signed messages surface both directly (on the
    sender's channel) and *embedded in certificates* relayed by third
    parties; collecting every sighting in one ledger turns an
    equivocation — two differently-valued signed messages for the same
    (sender, type, round) slot — into verifiable evidence against the
    signer, whichever channels the two branches travelled.

    This realises the paper's check that "the right message has been sent
    by the right process at the right time with the right arguments"
    across *all* observed history.

    The ledger *declares* equivocators faulty but does not veto otherwise
    well-formed messages: an innocent process may have built its state on
    one branch of an equivocation before anyone could know, and rejecting
    its messages would sacrifice Termination (see DESIGN.md §5 for the
    liveness/safety trade-off analysis).
    """

    def __init__(self, verify: SignatureCheck) -> None:
        self._verify = verify
        self._seen: dict[tuple[int, str, int | None], bytes] = {}

    def snapshot(self) -> tuple[tuple[int, str, int, str], ...]:
        """Canonical view of every recorded signing slot.

        One ``(sender, type, round, fingerprint-hex)`` tuple per
        ``(sender, type, round)`` slot seen so far (round ``-1`` for
        unrounded bodies), sorted — the model checker's state digest
        includes this so two states that differ only in recorded
        equivocation evidence are not conflated.
        """
        return tuple(
            sorted(
                (sender, kind, -1 if rnd is None else rnd, fingerprint.hex())
                for (sender, kind, rnd), fingerprint in self._seen.items()
            )
        )

    def conflicts(self, message: SignedMessage) -> list[tuple[int, str]]:
        """Record ``message`` and everything embedded in its certificate.

        Returns ``(culprit, description)`` pairs for every *newly proven*
        equivocation. Unverifiable entries are skipped (they are handled
        by the signature predicates, not the ledger).
        """
        found: list[tuple[int, str]] = []
        self._walk(message, found)
        return found

    def _walk(self, message: SignedMessage, found: list[tuple[int, str]]) -> None:
        if not self._verify(message):
            return
        body = message.body
        key = (body.sender, type(body).__name__, getattr(body, "round", None))
        fingerprint = message.light_bytes()
        previous = self._seen.get(key)
        if previous is None:
            self._seen[key] = fingerprint
        elif previous != fingerprint:
            found.append(
                (
                    body.sender,
                    f"equivocation: two different signed "
                    f"{type(body).__name__} messages for round "
                    f"{getattr(body, 'round', '-')}",
                )
            )
        if message.has_full_cert:
            for entry in message.full_cert():
                self._walk(entry, found)


class MonitorBank:
    """All of one process's peer monitors plus its ``faulty`` set.

    This is the complete non-muteness failure detection module of
    Figure 1: it admits or rejects each incoming signed message, and
    maintains the set ``faulty_i`` that the protocol module may read.
    """

    def __init__(
        self,
        own_pid: int,
        params: SystemParameters,
        verify: SignatureCheck,
        make_monitor: Callable[[int], PeerMonitorBase],
        use_ledger: bool = True,
    ) -> None:
        self.own_pid = own_pid
        self.params = params
        # One clean-verdict memo for the whole bank: every monitor runs
        # the same verify under the same key domain, so a CURRENT checked
        # on one channel needs no re-analysis when it reappears inside a
        # certificate on another.
        self.pf_cache = PredicateCache()
        self.monitors: dict[int, PeerMonitorBase] = {}
        for peer in range(params.n):
            if peer != own_pid:
                monitor = self.monitors[peer] = make_monitor(peer)
                monitor.pf_cache = self.pf_cache
        self.ledger = EquivocationLedger(verify) if use_ledger else None
        self._faulty: set[int] = set()
        self._reports: list[FaultReport] = []
        # Metrics scopes; rebound via attach_metrics once the hosting
        # process is in a world.
        self.metrics = NULL_METRICS
        self.cert_metrics = NULL_METRICS

    def attach_metrics(self, registry: MetricsRegistry, pid: int) -> None:
        """Bind the bank (and its monitors) to the world's registry.

        Automaton admissions are attributed to the non-muteness module;
        the PF predicate checks the monitors run are attributed to the
        certification module — they analyse certificates, per Figure 1.
        """
        self.metrics = registry.scope(MODULE_MONITOR, pid)
        self.cert_metrics = registry.scope(MODULE_CERTIFICATION, pid)
        self.pf_cache.attach_metrics(self.cert_metrics)
        for monitor in self.monitors.values():
            monitor.attach_metrics(self.cert_metrics)

    @property
    def faulty(self) -> frozenset[int]:
        """The ``faulty_i`` set (read-only view for the protocol module)."""
        return frozenset(self._faulty)

    @property
    def reports(self) -> tuple[FaultReport, ...]:
        return tuple(self._reports)

    def admit(self, src: int, message: SignedMessage, now: float) -> bool:
        """Run the peer's automaton; ``False`` means drop (sender declared
        faulty or already faulty)."""
        equivocations = (
            self.ledger.conflicts(message) if self.ledger is not None else []
        )
        if equivocations:
            self.metrics.inc("equivocations_detected", len(equivocations))
        for culprit, description in equivocations:
            if culprit != self.own_pid:
                self.declare(culprit, description, now)
        monitor = self.monitors.get(src)
        if monitor is None:  # own loopback messages are trusted
            return True
        already_faulty = monitor.faulty
        step = monitor.feed(message)
        self.metrics.inc("automaton_transitions")
        if step.accepted:
            self.metrics.inc("messages_admitted")
            return True
        self.metrics.inc("messages_rejected")
        if not already_faulty:
            self.declare(src, step.reason or "behaviour violation", now)
        return False

    def declare(self, culprit: int, reason: str, now: float) -> None:
        """Add ``culprit`` to the faulty set (used also by the signature
        module for identity/signature failures)."""
        if culprit not in self._faulty:
            self._faulty.add(culprit)
            self.metrics.inc("faults_declared")
            self._reports.append(
                FaultReport(culprit=culprit, reason=reason, time=now)
            )

    def state_of(self, peer: int) -> str:
        if peer == self.own_pid:
            return "self"
        if peer in self._faulty and not self.monitors[peer].faulty:
            return FAULTY
        return self.monitors[peer].state
