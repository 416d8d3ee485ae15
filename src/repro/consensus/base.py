"""Shared shape of consensus processes.

Both crash-model protocols and the transformed arbitrary-fault protocol
are *regular round-based* algorithms (the class the paper's methodology
applies to): a process repeatedly exchanges messages in asynchronous
rounds until it decides. This module factors the common skeleton —
proposal, decision bookkeeping, failure-detector wiring and the periodic
suspicion poll that turns the pseudocode's ``upon (p_c in suspected)``
guard into discrete events.
"""

from __future__ import annotations

from typing import Any

from repro.detectors.base import FailureDetector
from repro.observability.registry import MODULE_PROTOCOL
from repro.process import Process, ProcessEnv

#: Timer name used for the recurring suspicion-guard evaluation.
SUSPICION_POLL_TIMER = "suspicion-poll"


class ConsensusProcess(Process):
    """A process participating in one consensus instance.

    Subclasses implement the round logic; this base owns the proposal, the
    decision slot (write-once), and the detector plumbing. ``decide`` and
    round starts are recorded in the run trace, which is what the property
    checkers consume.
    """

    def __init__(
        self,
        proposal: Any,
        detector: FailureDetector | None = None,
        suspicion_poll: float = 0.5,
    ) -> None:
        super().__init__()
        self.proposal = proposal
        self.detector = detector
        self._suspicion_poll = suspicion_poll
        self.decision: Any = None
        self.decided = False
        self.decision_round: int | None = None
        self.decision_time: float | None = None

    # -- wiring ------------------------------------------------------------

    def bind(self, env: ProcessEnv) -> None:
        super().bind(env)
        if self.detector is not None:
            self.detector.attach(env)

    def on_start(self) -> None:
        if self.detector is not None:
            self.detector.start()
            self.set_timer(SUSPICION_POLL_TIMER, self._suspicion_poll)
        self.record("propose", value=self.proposal)
        self.start_protocol()

    def on_timer(self, name: str) -> None:
        if name == SUSPICION_POLL_TIMER:
            if not self.decided:
                self.evaluate_guards()
                self.set_timer(SUSPICION_POLL_TIMER, self._suspicion_poll)
            return
        self.handle_timer(name)

    def on_message(self, src: int, payload: Any) -> None:
        if self.detector is not None and self.detector.filter_message(src, payload):
            return
        if self.decided:
            return
        self.handle_message(src, payload)

    # -- decision ------------------------------------------------------------

    @property
    def suspected(self) -> frozenset[int]:
        """The ``suspected`` set exposed by the attached detector."""
        if self.detector is None:
            return frozenset()
        return self.detector.suspected

    def decide_value(self, value: Any, round_number: int | None = None) -> None:
        """Fix the decision (write-once) and record it in the trace."""
        if self.decided:
            return
        self.decided = True
        self.decision = value
        self.decision_round = round_number
        self.decision_time = self.now
        self.env.metrics.inc(
            MODULE_PROTOCOL, "decisions", pid=self.pid, round=round_number
        )
        self.env.metrics.observe(
            MODULE_PROTOCOL, "decision_latency", self.now, pid=self.pid
        )
        self.cancel_timer(SUSPICION_POLL_TIMER)
        if self.detector is not None:
            self.detector.stop()
        self.record("decide", value=value, round=round_number)

    # -- hooks for subclasses ---------------------------------------------------

    def start_protocol(self) -> None:
        """Begin the protocol (called once at start)."""
        raise NotImplementedError

    def handle_message(self, src: int, payload: Any) -> None:
        """Handle a protocol message (detector traffic already filtered)."""
        raise NotImplementedError

    def evaluate_guards(self) -> None:
        """Re-evaluate state guards that depend on the detector output."""

    def handle_timer(self, name: str) -> None:
        """Handle a subclass-specific timer."""
