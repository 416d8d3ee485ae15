"""Failure-detector module interface.

A failure detector is a per-process module that maintains a set of
``suspected`` process identities; the protocol module may only *read* this
set (paper Sections 1 and 3). Detectors are unreliable: they may suspect
correct processes and may be late to suspect faulty ones — the classes
(◇S, ◇M, ...) constrain *eventual* behaviour only.

Detectors are attached to a process environment and schedule their own
internal timers, so protocol modules stay independent of detector
mechanics: they feed the detector every protocol message they receive and
read ``suspected`` when the algorithm consults it.
"""

from __future__ import annotations

from abc import ABC

from repro.errors import ProtocolError
from repro.observability.registry import MODULE_MUTENESS
from repro.process import ProcessEnv


class FailureDetector(ABC):
    """Base class of every failure-detector module.

    Observability: suspicion churn is counted under the ``muteness_fd``
    module label — the failure-detection slot of the paper's Figure 1.
    (Crash-model ◇S detectors occupy the same slot, so their counters
    share the label; see ``docs/OBSERVABILITY.md``.)
    """

    def __init__(self) -> None:
        self._suspected: set[int] = set()
        self._env: ProcessEnv | None = None
        self._stopped = False

    @property
    def env(self) -> ProcessEnv:
        if self._env is None:
            raise ProtocolError("failure detector used before attach()")
        return self._env

    @property
    def attached(self) -> bool:
        return self._env is not None

    def attach(self, env: ProcessEnv) -> None:
        """Bind the detector to the process environment that hosts it."""
        if self._env is not None:
            raise ProtocolError("failure detector attached twice")
        self._env = env

    def start(self) -> None:
        """Begin detection (arm timers). Called from the host's ``on_start``."""

    def stop(self) -> None:
        """Cease detection permanently (host decided or halted).

        Pending internal timers become no-ops, letting the run quiesce.
        """
        self._stopped = True

    @property
    def stopped(self) -> bool:
        return self._stopped

    # -- inputs --------------------------------------------------------------

    def on_protocol_message(self, src: int) -> None:
        """Notify the detector that a protocol message from ``src`` arrived."""

    def filter_message(self, src: int, payload: object) -> bool:
        """Offer a raw delivery to the detector.

        Returns ``True`` if the payload was detector-internal traffic
        (e.g. a heartbeat) that the protocol module must not see.
        """
        return False

    # -- output ----------------------------------------------------------------

    @property
    def suspected(self) -> frozenset[int]:
        """The set of processes currently suspected (read-only view)."""
        return frozenset(self._suspected)

    def is_suspected(self, pid: int) -> bool:
        return pid in self._suspected

    # -- bookkeeping for subclasses ---------------------------------------------

    def _suspect(self, pid: int) -> None:
        if pid not in self._suspected:
            self._suspected.add(pid)
            self.env.metrics.inc(
                MODULE_MUTENESS, "suspicions_raised", pid=self.env.pid
            )
            self.env.trace.record(
                self.env.now, "suspect", process=self.env.pid, target=pid
            )

    def _unsuspect(self, pid: int) -> None:
        if pid in self._suspected:
            self._suspected.discard(pid)
            self.env.metrics.inc(
                MODULE_MUTENESS, "suspicions_retracted", pid=self.env.pid
            )
            self.env.trace.record(
                self.env.now, "unsuspect", process=self.env.pid, target=pid
            )
