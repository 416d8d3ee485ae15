"""The discrete-event scheduler.

The scheduler is the single authority over virtual time: it pops the
earliest event, advances the clock to its timestamp, and runs its callback.
Runs end in one of four ways, reported by :class:`RunResult`:

* ``quiescent`` — no pending events remain (the system reached a fixpoint),
* ``max_events`` — the event budget was exhausted (used as a liveness
  watchdog in experiments: a correct run should quiesce well before it),
* ``max_time`` — virtual time passed the configured horizon,
* ``stopped`` — a callback requested early termination via :meth:`Scheduler.stop`.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Any

from repro.errors import SchedulerError
from repro.observability.registry import MODULE_SCHEDULER, MetricsRegistry
from repro.process import CancellationToken, SeededRng
from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventCallback, EventQueue


@dataclass(frozen=True, slots=True)
class RunResult:
    """Outcome of a :meth:`Scheduler.run` call."""

    reason: str
    events_dispatched: int
    end_time: float

    def quiescent(self) -> bool:
        return self.reason == "quiescent"


class Scheduler:
    """Owns the clock, the event queue and the master random stream."""

    def __init__(self, seed: int = 0) -> None:
        self.clock = VirtualClock()
        self.rng = SeededRng(seed)
        self._queue = EventQueue()
        self._stopped = False
        self._dispatched = 0
        #: Observability sink; the owning world rebinds this to its registry.
        self.metrics: MetricsRegistry | None = None

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def events_dispatched(self) -> int:
        return self._dispatched

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    # -- scheduling ---------------------------------------------------------

    def schedule_at(
        self, time: float, kind: str, callback: EventCallback, meta: Any = None
    ) -> CancellationToken:
        """Schedule ``callback`` at absolute virtual ``time`` (>= now)."""
        if time < self.clock.now:
            raise SchedulerError(
                f"cannot schedule event in the past: now={self.clock.now}, at={time}"
            )
        return self._queue.push(time, kind, callback, meta=meta)

    def schedule_after(
        self, delay: float, kind: str, callback: EventCallback, meta: Any = None
    ) -> CancellationToken:
        """Schedule ``callback`` after a non-negative virtual ``delay``."""
        if delay < 0.0:
            raise SchedulerError(f"negative delay {delay!r}")
        return self._queue.push(self.clock.now + delay, kind, callback, meta=meta)

    def stop(self) -> None:
        """Request that the current :meth:`run` loop stop after this event."""
        self._stopped = True

    # -- controlled dispatch (the model checker's step function) -------------

    def pending(self) -> list[Event]:
        """Snapshot of every live pending event in ``(time, seq)`` order."""
        return self._queue.live_events()

    def dispatch_event(self, event: Event) -> None:
        """Dispatch one chosen pending event out of queue order.

        This is the step function of the ``repro.mc`` explorer: the
        driver picks *which* enabled event fires next instead of letting
        virtual time decide, which is exactly the asynchronous
        adversary's scheduling power. The clock is clamped forward only
        (dispatching an event whose timestamp is older than ``now``
        leaves the clock in place — its causal moment already passed on
        this interleaving), and the event is cancelled in the queue so a
        later :meth:`run` never fires it twice.
        """
        if event.cancelled.cancelled:
            raise SchedulerError("dispatch_event() on a cancelled event")
        event.cancelled.cancel()
        if event.time > self.clock.now:
            self.clock.advance_to(event.time)
        if self.metrics is not None:
            self.metrics.inc(MODULE_SCHEDULER, f"events_{event.kind}")
        event.callback()
        self._dispatched += 1

    # -- execution ----------------------------------------------------------

    def run(
        self,
        max_events: int | None = None,
        max_time: float | None = None,
    ) -> RunResult:
        """Dispatch events until quiescence, a budget, or :meth:`stop`."""
        self._stopped = False
        dispatched_this_run = 0
        while True:
            if self._stopped:
                return self._result("stopped", dispatched_this_run)
            if max_events is not None and dispatched_this_run >= max_events:
                return self._result("max_events", dispatched_this_run)
            next_time = self._queue.peek_time()
            if next_time is None:
                return self._result("quiescent", dispatched_this_run)
            if max_time is not None and next_time > max_time:
                self.clock.advance_to(max_time)
                return self._result("max_time", dispatched_this_run)
            if self.metrics is not None:
                # Event-loop depth *before* the pop: how much work is queued
                # at the moment this event runs.
                self.metrics.gauge_max(
                    MODULE_SCHEDULER, "queue_depth_max", len(self._queue)
                )
            event = self._queue.pop()
            self.clock.advance_to(event.time)
            if self.metrics is not None:
                self.metrics.inc(MODULE_SCHEDULER, f"events_{event.kind}")
            event.callback()
            self._dispatched += 1
            dispatched_this_run += 1

    def _result(self, reason: str, dispatched: int) -> RunResult:
        return RunResult(
            reason=reason,
            events_dispatched=dispatched,
            end_time=self.clock.now,
        )
