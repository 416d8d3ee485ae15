"""Events and the event queue of the discrete-event simulator.

An :class:`Event` is a timestamped thunk. The :class:`EventQueue` is a
binary heap ordered by ``(time, sequence)`` so that simultaneous events are
dispatched in insertion order — this makes every run fully deterministic
for a fixed seed, which is what lets the experiment harness replay runs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SchedulerError
from repro.process import CancellationToken

EventCallback = Callable[[], None]


@dataclass(frozen=True, slots=True)
class Event:
    """A scheduled callback.

    Attributes:
        time: virtual time at which the callback fires.
        seq: global insertion sequence number; ties on ``time`` are broken
            by ``seq`` so the queue is a stable priority queue.
        kind: free-form label used by traces and debugging (``"deliver"``,
            ``"timer"``, ...).
        callback: zero-argument callable executed when the event fires.
        cancelled: cooperative cancellation flag (see :meth:`EventQueue.cancel`).
        meta: optional structured tag identifying what the event *is*
            (e.g. ``("deliver", src, dst)`` for a network delivery) so
            external drivers — the model checker above all — can
            enumerate and select pending events without inspecting
            opaque callbacks.
    """

    time: float
    seq: int
    kind: str
    callback: EventCallback = field(compare=False)
    cancelled: "CancellationToken" = field(compare=False)
    meta: Any = field(compare=False, default=None)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class EventQueue:
    """Stable min-heap of :class:`Event` objects keyed by ``(time, seq)``."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self,
        time: float,
        kind: str,
        callback: EventCallback,
        meta: Any = None,
    ) -> CancellationToken:
        """Schedule ``callback`` at virtual ``time``; returns a cancel token."""
        if time < 0.0:
            raise SchedulerError(f"cannot schedule event at negative time {time!r}")
        token = CancellationToken()
        event = Event(
            time=time,
            seq=next(self._counter),
            kind=kind,
            callback=callback,
            cancelled=token,
            meta=meta,
        )
        heapq.heappush(self._heap, event)
        return token

    def live_events(self) -> list[Event]:
        """Every pending non-cancelled event in dispatch order.

        A read-only snapshot for external drivers (the model checker);
        the queue itself is untouched.
        """
        return sorted(e for e in self._heap if not e.cancelled.cancelled)

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises :class:`~repro.errors.SchedulerError` when empty.
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled.cancelled:
                return event
        raise SchedulerError("pop() on an empty event queue")

    def peek_time(self) -> float | None:
        """Timestamp of the earliest pending event, or ``None`` if empty."""
        while self._heap and self._heap[0].cancelled.cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time

    def is_empty(self) -> bool:
        return self.peek_time() is None
