"""Versioned JSONL export of a run: metrics + trace in one artifact.

One run = one ``.jsonl`` file. Line 1 is a header carrying the schema
version and the run's configuration; then every metric (counters,
gauges, histograms) in a canonical sorted order; then every trace event
in simulation order. Each line is one JSON object serialised with sorted
keys and no whitespace, so a fixed-seed run exported twice is
**byte-identical** — the determinism tests pin exactly this.

Schema ``repro.observability/v1`` (full field tables in
``docs/OBSERVABILITY.md``):

* ``{"kind": "header", "schema": "...", "meta": {...}}``
* ``{"kind": "metric", "metric": "counter" | "gauge", "module": m,
  "name": n, "pid": p|null, "round": r|null, "value": v}``
* ``{"kind": "metric", "metric": "histogram", "module": m, "name": n,
  "pid": p|null, "round": r|null, "count": c, "sum": s, "min": lo,
  "max": hi}``
* ``{"kind": "event", "time": t, "type": trace-kind, "process": p|null,
  "detail": {...}}``

Wall-clock span profiles are intentionally absent: they are not
deterministic and live only in the in-memory registry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO, Iterable, Iterator, Mapping

from repro.errors import ReproError
from repro.observability.registry import MetricsRegistry
from repro.sim.trace import Trace, TraceEvent

SCHEMA_VERSION = "repro.observability/v1"


class ArtifactError(ReproError):
    """A JSONL artifact is malformed or has an unsupported schema."""


def dumps_canonical(record: Mapping[str, Any]) -> str:
    """One record as a canonical JSON line: sorted keys, no whitespace.

    Shared by every JSONL artifact family (``repro.observability/v1``,
    ``repro.campaign/v1``) — canonical serialisation is what makes
    fixed-seed artifacts byte-identical.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


_dumps = dumps_canonical


def detail_value(value: Any) -> Any:
    """A JSON-ready rendering of one trace-event detail value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Payloads and other rich objects are summarised, not expanded: the
    # artifact is for accounting, the full objects stay in-process.
    from repro.analysis.tracefmt import describe_payload  # lazy: avoids cycle

    return describe_payload(value)


def event_record(event: TraceEvent) -> dict[str, Any]:
    """One trace event as a schema-v1 ``kind=event`` record."""
    return {
        "kind": "event",
        "time": round(event.time, 9),
        "type": event.kind,
        "process": event.process,
        "detail": {
            key: detail_value(value) for key, value in event.detail.items()
        },
    }


def metric_records(metrics: MetricsRegistry) -> Iterator[dict[str, Any]]:
    """Every metric as schema-v1 ``kind=metric`` records, canonical order."""
    for (module, name, pid, rnd), value in metrics.iter_counters():
        yield {
            "kind": "metric",
            "metric": "counter",
            "module": module,
            "name": name,
            "pid": pid,
            "round": rnd,
            "value": value,
        }
    for (module, name, pid, rnd), value in metrics.iter_gauges():
        yield {
            "kind": "metric",
            "metric": "gauge",
            "module": module,
            "name": name,
            "pid": pid,
            "round": rnd,
            "value": value,
        }
    for (module, name, pid, rnd), (count, total, lo, hi) in (
        metrics.iter_histograms()
    ):
        yield {
            "kind": "metric",
            "metric": "histogram",
            "module": module,
            "name": name,
            "pid": pid,
            "round": rnd,
            "count": int(count),
            "sum": total,
            "min": lo,
            "max": hi,
        }


def run_to_lines(
    trace: Trace,
    metrics: MetricsRegistry,
    meta: Mapping[str, Any] | None = None,
) -> Iterator[str]:
    """The full artifact, one JSON line at a time (no trailing newlines)."""
    yield _dumps(
        {"kind": "header", "schema": SCHEMA_VERSION, "meta": dict(meta or {})}
    )
    for record in metric_records(metrics):
        yield _dumps(record)
    for event in trace:
        yield _dumps(event_record(event))


def write_run_jsonl(
    target: str | Path | IO[str],
    trace: Trace,
    metrics: MetricsRegistry,
    meta: Mapping[str, Any] | None = None,
) -> None:
    """Write the artifact to a path or an open text handle."""
    lines = run_to_lines(trace, metrics, meta)
    if hasattr(target, "write"):
        for line in lines:
            target.write(line + "\n")
        return
    with open(target, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


@dataclass(slots=True)
class RunArtifact:
    """A parsed JSONL artifact: header meta, metrics, event records."""

    schema: str = SCHEMA_VERSION
    meta: dict[str, Any] = field(default_factory=dict)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    events: list[dict[str, Any]] = field(default_factory=list)

    def events_of_type(self, event_type: str) -> list[dict[str, Any]]:
        return [e for e in self.events if e["type"] == event_type]


def _load_metric(artifact: RunArtifact, record: dict[str, Any]) -> None:
    module, name = record["module"], record["name"]
    pid, rnd = record.get("pid"), record.get("round")
    metric = record.get("metric")
    if metric == "counter":
        artifact.metrics.inc(module, name, record["value"], pid=pid, round=rnd)
    elif metric == "gauge":
        artifact.metrics.gauge_set(module, name, record["value"], pid=pid)
    elif metric == "histogram":
        artifact.metrics._histograms[(module, name, pid, rnd)] = [
            int(record["count"]),
            record["sum"],
            record["min"],
            record["max"],
        ]
    else:
        raise ArtifactError(f"unknown metric type {metric!r}")


def parse_lines(lines: Iterable[str]) -> RunArtifact:
    """Parse artifact lines back into a :class:`RunArtifact`.

    Round-trips: serialising the result with :func:`artifact_to_lines`
    reproduces the input byte for byte.
    """
    artifact = RunArtifact()
    saw_header = False
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"line {number}: not JSON ({exc})") from exc
        kind = record.get("kind")
        if kind == "header":
            schema = record.get("schema", "")
            if not schema.startswith("repro.observability/"):
                raise ArtifactError(f"unsupported schema {schema!r}")
            artifact.schema = schema
            artifact.meta = record.get("meta", {})
            saw_header = True
        elif kind == "metric":
            _load_metric(artifact, record)
        elif kind == "event":
            artifact.events.append(
                {
                    "time": record["time"],
                    "type": record["type"],
                    "process": record["process"],
                    "detail": record.get("detail", {}),
                }
            )
        else:
            raise ArtifactError(f"line {number}: unknown record kind {kind!r}")
    if not saw_header:
        raise ArtifactError("artifact has no header line")
    return artifact


def read_run_jsonl(path: str | Path) -> RunArtifact:
    """Parse a ``.jsonl`` artifact file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_lines(handle)


def artifact_to_lines(artifact: RunArtifact) -> Iterator[str]:
    """Re-serialise a parsed artifact (canonical order, byte-stable)."""
    yield _dumps(
        {"kind": "header", "schema": artifact.schema, "meta": artifact.meta}
    )
    for record in metric_records(artifact.metrics):
        yield _dumps(record)
    for event in artifact.events:
        yield _dumps(
            {
                "kind": "event",
                "time": event["time"],
                "type": event["type"],
                "process": event["process"],
                "detail": event["detail"],
            }
        )
