"""Trace export and message-sequence rendering.

Every run produces a complete :class:`~repro.observability.trace.Trace`; this
module turns it into artefacts humans and tools consume:

* :func:`trace_to_records` / :func:`trace_to_json` — a JSON-serialisable
  event list (payloads summarised, certificates reported by shape, not
  expanded) for archival or external analysis;
* :func:`render_sequence` — a plain-text message-sequence chart of the
  protocol traffic, the fastest way to *see* a run when debugging a
  schedule or explaining an attack.
"""

from __future__ import annotations

import json
from typing import Any

from repro.observability.export import describe_payload
from repro.observability.trace import Trace, TraceEvent


def event_to_record(event: TraceEvent) -> dict[str, Any]:
    """A JSON-serialisable rendering of one trace event."""
    detail: dict[str, Any] = {}
    for key, value in event.detail.items():
        if key == "payload":
            detail["payload"] = describe_payload(value)
        elif isinstance(value, (str, int, float, bool)) or value is None:
            detail[key] = value
        else:
            detail[key] = repr(value)
    return {
        "time": round(event.time, 6),
        "kind": event.kind,
        "process": event.process,
        **detail,
    }


def trace_to_records(
    trace: Trace, kinds: set[str] | None = None
) -> list[dict[str, Any]]:
    """All (or the selected kinds of) events as JSON-ready dicts."""
    return [
        event_to_record(event)
        for event in trace
        if kinds is None or event.kind in kinds
    ]


def trace_to_json(trace: Trace, kinds: set[str] | None = None) -> str:
    return json.dumps(trace_to_records(trace, kinds), indent=2)


def _sequence_rows(trace: Trace, n: int, kinds: frozenset[str]):
    """Collapse the trace into (time, pid, text) rows; broadcasts of the
    same payload at the same instant become one ``-> *`` row."""
    rows: list[tuple[float, int, str]] = []
    open_sends: dict[tuple, list[int]] = {}

    def flush(key) -> None:
        destinations = open_sends.pop(key)
        time, pid, payload_text = key
        if len(destinations) == n:
            target = "*"
        else:
            target = ",".join(str(d) for d in sorted(destinations))
        rows.append((time, pid, f"{payload_text} -> {target}"))

    for event in trace:
        if event.kind == "send" and "send" in kinds:
            key = (
                event.time,
                event.process,
                describe_payload(event.detail.get("payload")),
            )
            open_sends.setdefault(key, []).append(event.detail.get("dst"))
            continue
        for key in list(open_sends):
            flush(key)
        if event.kind not in kinds:
            continue
        pid = event.process if event.process is not None else 0
        if event.kind == "decide":
            text = f"DECIDE {event.detail.get('value')!r}"
        elif event.kind == "round-start":
            text = f"round {event.detail.get('round')}"
        elif event.kind == "declare_faulty":
            text = f"faulty += {event.detail.get('target')}"
        else:
            text = event.kind.upper()
        rows.append((event.time, pid, text))
    for key in list(open_sends):
        flush(key)
    return rows


def render_sequence(
    trace: Trace,
    n: int,
    max_events: int = 80,
    kinds: frozenset[str] = frozenset({"send", "decide", "crash",
                                       "declare_faulty", "round-start"}),
) -> str:
    """A plain-text message-sequence chart of the run.

    One row per event in time order; each row is attributed to its
    process column. Broadcasts are collapsed to a single ``-> *`` entry.
    """
    rows = _sequence_rows(trace, n, kinds)
    width = max(16, max((len(text) for (_t, _p, text) in rows), default=16))
    width = min(width, 44)
    header = "   time  | " + " | ".join(
        f"p{pid}".ljust(width) for pid in range(n)
    )
    lines = [header, "-" * len(header)]
    for time, pid, text in rows[:max_events]:
        cells = ["".ljust(width)] * n
        if 0 <= pid < n:
            cells[pid] = text[:width].ljust(width)
        lines.append(f"{time:8.2f} | " + " | ".join(cells))
    if len(rows) > max_events:
        lines.append(f"... ({len(rows) - max_events} more rows truncated)")
    return "\n".join(lines)
