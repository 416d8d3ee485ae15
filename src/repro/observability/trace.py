"""Run traces.

Every observable step of a run — sends, deliveries, decisions,
suspicions, fault declarations, crashes — is appended to a :class:`Trace`.
The property checkers in :mod:`repro.analysis.properties` and the metrics
in :mod:`repro.analysis.metrics` work entirely off this record, so a trace
is a complete, replayable account of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One observable step of a run.

    Attributes:
        time: virtual time of the step.
        kind: event category (``send``, ``deliver``, ``decide``, ``crash``,
            ``suspect``, ``declare_faulty``, ``discard``, ...).
        process: id of the process the event belongs to, or ``None`` for
            system-level events.
        detail: free-form payload describing the step.
    """

    time: float
    kind: str
    process: int | None
    detail: dict[str, Any] = field(default_factory=dict)


class Trace:
    """Append-only sequence of :class:`TraceEvent` with query helpers."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def record(
        self,
        time: float,
        kind: str,
        process: int | None = None,
        **detail: Any,
    ) -> TraceEvent:
        """Append and return a new event."""
        event = TraceEvent(time=time, kind=kind, process=process, detail=detail)
        self._events.append(event)
        return event

    # -- queries ------------------------------------------------------------

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events with the given ``kind``, in order."""
        return [e for e in self._events if e.kind == kind]

    def by_process(self, process: int) -> list[TraceEvent]:
        """All events attributed to ``process``, in order."""
        return [e for e in self._events if e.process == process]

    def where(self, predicate: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        """All events satisfying ``predicate``, in order."""
        return [e for e in self._events if predicate(e)]

    def first(self, kind: str, process: int | None = None) -> TraceEvent | None:
        """Earliest event of ``kind`` (optionally for one process)."""
        for event in self._events:
            if event.kind == kind and (process is None or event.process == process):
                return event
        return None

    def last(self, kind: str, process: int | None = None) -> TraceEvent | None:
        """Latest event of ``kind`` (optionally for one process)."""
        for event in reversed(self._events):
            if event.kind == kind and (process is None or event.process == process):
                return event
        return None

    def count(self, kind: str) -> int:
        """Number of events of the given kind."""
        return sum(1 for e in self._events if e.kind == kind)
