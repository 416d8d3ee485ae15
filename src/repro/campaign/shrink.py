"""Campaign-scenario shrinking: the scenario neighbours of the one loop.

:func:`shrink_scenario` minimises a failing campaign scenario (and
``repro mc replay --shrink``'s counterexamples) with the one
delta-debugging loop, :func:`repro.faults.shrink.shrink`: drop one faulty
process, shrink ``n``, heal the wire, flatten the delay model to
``fixed``, zero the seed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

from repro.campaign.runner import ScenarioRecord, run_scenario
from repro.campaign.scenario import Scenario
from repro.errors import ConfigurationError
from repro.faults.shrink import DEFAULT_BUDGET, ShrinkResult, shrink, violation_kinds


def _candidates(scenario: Scenario) -> Iterator[tuple[str, Scenario]]:
    """Structurally smaller variants, most aggressive first."""
    # 1. Drop one faulty process at a time (attack, crash or colluder).
    for pid in sorted(scenario.faulty_pids):
        smaller = scenario.without_fault(pid)
        if smaller != scenario:
            yield f"drop faults of p{pid}", smaller
    # 2. Shrink the system, highest pid first. Only valid while every
    #    remaining fault seat exists in the smaller world.
    if scenario.n > 2 and all(pid < scenario.n - 1 for pid in scenario.faulty_pids):
        yield f"shrink n to {scenario.n - 1}", replace(scenario, n=scenario.n - 1)
    # 3. Heal the wire: drop all link faults (and the transport with them).
    if scenario.has_link_faults:
        yield "heal all link faults", scenario.without_link_faults()
    # 4. Flatten the delay model.
    if scenario.delay_model != "fixed":
        yield "flatten delay model to fixed", replace(
            scenario, delay_model="fixed", delay_params=()
        )
    # 5. Canonicalise the seed.
    if scenario.seed != 0:
        yield "reset seed to 0", replace(scenario, seed=0)


def _scenario_neighbours(scenario: Scenario) -> Iterator[tuple[str, Scenario]]:
    for description, candidate in _candidates(scenario):
        yield f"{description} -> {candidate.scenario_id}", candidate


def _probe_scenario(scenario: Scenario) -> tuple[frozenset[str], ScenarioRecord]:
    record = run_scenario(scenario)
    return violation_kinds(record.to_record()), record


def shrink_scenario(
    scenario: Scenario,
    budget: int = DEFAULT_BUDGET,
) -> ShrinkResult:
    """Shrink a failing scenario; ``outcome`` is the minimal one's
    :class:`ScenarioRecord`. A scenario that does not fail raises
    :class:`ConfigurationError` (there is nothing to shrink)."""
    result = shrink(scenario, _scenario_neighbours, _probe_scenario, budget)
    if not result.kinds:
        raise ConfigurationError(
            f"scenario {scenario.scenario_id} does not fail; nothing to shrink"
        )
    return result
