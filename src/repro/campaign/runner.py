"""Run scenarios and aggregate campaign results.

:func:`run_scenario` is the single-run primitive replay is built on:
build the scenario's world, run it to quiescence or the scenario's time
budget, evaluate the oracle catalogue, and return a
:class:`ScenarioRecord` whose JSON rendering is exactly what the
campaign artifact stores. Because every input is pinned by the scenario
config, calling it twice yields identical records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.campaign.oracles import ScenarioOutcome, evaluate_outcome
from repro.campaign.scenario import Scenario, build_scenario_system
from repro.faults.oracle import VERDICT_FAIL

#: Progress callback: (index, total, record) after each finished run.
ProgressCallback = Callable[[int, int, "ScenarioRecord"], None]


@dataclass(slots=True)
class ScenarioRecord:
    """One scenario's config, outcome and run accounting."""

    scenario: Scenario
    outcome: ScenarioOutcome
    end_time: float
    end_reason: str
    messages_sent: int
    events: int
    messages_dropped: int = 0
    messages_duplicated: int = 0
    retransmissions: int = 0

    @property
    def scenario_id(self) -> str:
        return self.scenario.scenario_id

    @property
    def verdict(self) -> str:
        return self.outcome.verdict

    def to_record(self) -> dict[str, Any]:
        """The artifact's ``kind=scenario`` payload (JSON-ready)."""
        record = {
            "id": self.scenario_id,
            "config": self.scenario.to_config(),
            "run": {
                "end_time": round(self.end_time, 9),
                "end_reason": self.end_reason,
                "messages_sent": self.messages_sent,
                "events": self.events,
                "messages_dropped": self.messages_dropped,
                "messages_duplicated": self.messages_duplicated,
                "retransmissions": self.retransmissions,
            },
        }
        record.update(self.outcome.to_record())
        return record


def run_scenario(scenario: Scenario) -> ScenarioRecord:
    """Build, run and judge one scenario (deterministic end to end)."""
    system = build_scenario_system(scenario)
    result = system.run(max_time=scenario.max_time)
    outcome = evaluate_outcome(scenario, system)
    transport = system.world.transport
    return ScenarioRecord(
        scenario=scenario,
        outcome=outcome,
        end_time=result.end_time,
        end_reason=result.reason,
        messages_sent=system.world.network.messages_sent,
        events=result.events_dispatched,
        messages_dropped=system.world.network.messages_dropped,
        messages_duplicated=system.world.network.messages_duplicated,
        retransmissions=transport.retransmissions if transport else 0,
    )


@dataclass(slots=True)
class CampaignResult:
    """All records of one campaign plus the summary the artifact stores."""

    records: list[ScenarioRecord] = field(default_factory=list)

    @property
    def verdict_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.verdict] = counts.get(record.verdict, 0) + 1
        return counts

    @property
    def failure_class_coverage(self) -> dict[str, int]:
        """How many scenarios injected each taxonomy failure class."""
        coverage: dict[str, int] = {}
        for record in self.records:
            for failure_class in record.outcome.failure_classes:
                coverage[failure_class] = coverage.get(failure_class, 0) + 1
        return coverage

    @property
    def failures(self) -> list[ScenarioRecord]:
        return [r for r in self.records if r.verdict == VERDICT_FAIL]

    def summary(self) -> dict[str, Any]:
        return {
            "scenarios": len(self.records),
            "verdicts": dict(sorted(self.verdict_counts.items())),
            "failure_class_coverage": dict(
                sorted(self.failure_class_coverage.items())
            ),
            "failing_ids": sorted(r.scenario_id for r in self.failures),
        }


def run_campaign(
    scenarios: Iterable[Scenario],
    progress: ProgressCallback | None = None,
) -> CampaignResult:
    """Run every scenario in order and collect the records."""
    scenario_list = list(scenarios)
    result = CampaignResult()
    for index, scenario in enumerate(scenario_list):
        record = run_scenario(scenario)
        result.records.append(record)
        if progress is not None:
            progress(index, len(scenario_list), record)
    return result


def record_matches(recorded: Mapping[str, Any], fresh: ScenarioRecord) -> bool:
    """Replay check: does a fresh run reproduce the recorded payload?"""
    return recorded == fresh.to_record() or dict(recorded) == fresh.to_record()
