"""Versioned JSONL campaign artifact (``repro.campaign/v1``).

One campaign = one ``.jsonl`` file, following the conventions of the
run-artifact exporter (:mod:`repro.observability.export`): line 1 is a
header carrying the schema version and the campaign meta (preset,
master seed, spec shape); then one ``kind=scenario`` line per run in
enumeration order; then one trailing ``kind=summary`` line. Every line
is canonical JSON (sorted keys, no whitespace), so a fixed-master-seed
campaign exported twice is **byte-identical** — the campaign
determinism tests pin exactly this.

Schema ``repro.campaign/v1`` (full field tables in ``docs/TESTING.md``):

* ``{"kind": "header", "schema": "...", "meta": {...}}``
* ``{"kind": "scenario", "id": s..., "config": {...}, "run": {...},
  "verdict": ..., "properties": {...}, "detection": {...},
  "attribution": {...}, "violations": [...], "failure_classes": [...],
  "undetected": [...]}``
* ``{"kind": "summary", "scenarios": N, "verdicts": {...},
  "failure_class_coverage": {...}, "failing_ids": [...]}``
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO, Iterable, Iterator, Mapping

from repro.campaign.runner import CampaignResult
from repro.campaign.scenario import Scenario
from repro.errors import ReproError
from repro.observability.export import check_schema, dumps_canonical

CAMPAIGN_SCHEMA = "repro.campaign/v1"


class CampaignArtifactError(ReproError):
    """A campaign artifact is malformed or has an unsupported schema."""


def campaign_to_lines(
    result: CampaignResult, meta: Mapping[str, Any] | None = None
) -> Iterator[str]:
    """The full artifact, one JSON line at a time (no trailing newlines)."""
    yield dumps_canonical(
        {"kind": "header", "schema": CAMPAIGN_SCHEMA, "meta": dict(meta or {})}
    )
    for record in result.records:
        payload = {"kind": "scenario"}
        payload.update(record.to_record())
        yield dumps_canonical(payload)
    summary = {"kind": "summary"}
    summary.update(result.summary())
    yield dumps_canonical(summary)


def write_campaign_jsonl(
    target: str | Path | IO[str],
    result: CampaignResult,
    meta: Mapping[str, Any] | None = None,
) -> None:
    """Write the artifact to a path or an open text handle."""
    lines = campaign_to_lines(result, meta)
    if hasattr(target, "write"):
        for line in lines:
            target.write(line + "\n")
        return
    with open(target, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


@dataclass(slots=True)
class CampaignArtifact:
    """A parsed campaign artifact: header meta, scenario records, summary."""

    schema: str = CAMPAIGN_SCHEMA
    meta: dict[str, Any] = field(default_factory=dict)
    scenarios: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)

    def find(self, scenario_id: str) -> dict[str, Any]:
        """The recorded payload of one scenario id (raises if absent)."""
        for record in self.scenarios:
            if record.get("id") == scenario_id:
                return record
        raise CampaignArtifactError(
            f"scenario {scenario_id!r} not present in this artifact; "
            f"it records {len(self.scenarios)} scenarios"
        )

    def scenario_for(self, scenario_id: str) -> Scenario:
        """Rebuild the :class:`Scenario` recorded under ``scenario_id``."""
        record = self.find(scenario_id)
        scenario = Scenario.from_config(record["config"])
        if scenario.scenario_id != scenario_id:
            raise CampaignArtifactError(
                f"recorded config of {scenario_id!r} hashes to "
                f"{scenario.scenario_id!r}; the artifact is corrupt"
            )
        return scenario

    def ids(self) -> list[str]:
        return [record["id"] for record in self.scenarios]


def parse_campaign_lines(lines: Iterable[str]) -> CampaignArtifact:
    """Parse artifact lines back into a :class:`CampaignArtifact`."""
    artifact = CampaignArtifact()
    saw_header = False
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CampaignArtifactError(
                f"line {number}: not JSON ({exc})"
            ) from exc
        kind = record.get("kind")
        if kind == "header":
            schema = record.get("schema", "")
            check_schema(schema, "repro.campaign", 1)
            artifact.schema = schema
            artifact.meta = record.get("meta", {})
            saw_header = True
        elif kind == "scenario":
            payload = dict(record)
            payload.pop("kind")
            artifact.scenarios.append(payload)
        elif kind == "summary":
            payload = dict(record)
            payload.pop("kind")
            artifact.summary = payload
        else:
            raise CampaignArtifactError(
                f"line {number}: unknown record kind {kind!r}"
            )
    if not saw_header:
        raise CampaignArtifactError("campaign artifact has no header line")
    return artifact


def read_campaign_jsonl(path: str | Path) -> CampaignArtifact:
    """Parse a ``.jsonl`` campaign artifact file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_campaign_lines(handle)
    except OSError as exc:
        raise CampaignArtifactError(
            f"cannot read campaign artifact {path}: {exc}"
        ) from exc
