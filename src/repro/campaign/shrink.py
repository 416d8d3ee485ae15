"""Delta debugging, written once: the smallest input that fails the same way.

:func:`shrink` is the one greedy loop behind every minimiser in the
tree. It re-runs structurally smaller *neighbours* of the current
candidate in the fixed order a generator yields them, skips any that do
not ``validate()``, adopts the first one that still fails with the same
violation kinds (per :func:`repro.campaign.oracles.violation_kinds`:
exact counts and pids may legitimately shift as the input shrinks), and
restarts from it. It stops when no neighbour is adopted or ``budget``
runs, the start's included, are spent — so the reported minimum is
stable across machines and runs, and a shrink has a hard cost cap.

Callers only say what "smaller" means:

* :func:`shrink_scenario` (campaign scenarios, and ``repro mc replay
  --shrink``'s counterexamples): drop one faulty process, shrink ``n``,
  heal the wire, flatten the delay model to ``fixed``, zero the seed;
* :func:`repro.faults.shrink.shrink_fault_plan` (fault plans): drop one
  clause, zero one scalar link-noise axis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator

from repro.campaign.oracles import violation_kinds
from repro.campaign.runner import ScenarioRecord, run_scenario
from repro.campaign.scenario import Scenario
from repro.errors import ConfigurationError

#: Hard cap on runs per shrink (each run is one full world).
DEFAULT_BUDGET = 64

#: ``candidate -> (violation kinds, what the run produced)``.
Probe = Callable[[Any], tuple[frozenset[str], Any]]

#: ``candidate -> (step label, smaller candidate)`` in attempt order.
Neighbours = Callable[[Any], Iterable[tuple[Any, Any]]]


@dataclass(frozen=True, slots=True)
class ShrinkResult:
    """Outcome of one shrink."""

    original: Any
    minimal: Any
    #: Violation kinds of the original (empty: it did not fail).
    kinds: frozenset[str]
    #: What the probe returned for ``minimal``.
    outcome: Any
    #: Labels of the adopted neighbours, in adoption order.
    steps: tuple[Any, ...]
    #: Runs spent, the original's included.
    runs: int

    @property
    def shrunk(self) -> bool:
        return self.minimal != self.original


def shrink(
    start: Any,
    neighbours: Neighbours,
    probe: Probe,
    budget: int = DEFAULT_BUDGET,
) -> ShrinkResult:
    """Greedy deterministic shrink of ``start`` (see the module doc).

    A start that does not fail returns at once with empty ``kinds``:
    there is nothing to shrink toward, and the callers refuse it.
    """
    start.validate()
    kinds, outcome = probe(start)
    runs = 1
    current = start
    steps: list[Any] = []
    adopted = bool(kinds)
    while adopted and runs < budget:
        adopted = False
        for label, candidate in neighbours(current):
            if runs >= budget:
                break
            try:
                candidate.validate()
            except ConfigurationError:
                continue  # not a well-formed smaller input; skip
            runs += 1
            candidate_kinds, candidate_outcome = probe(candidate)
            if candidate_kinds == kinds:
                current, outcome = candidate, candidate_outcome
                steps.append(label)
                adopted = True
                break  # restart from the adopted candidate
    return ShrinkResult(
        original=start,
        minimal=current,
        kinds=kinds,
        outcome=outcome,
        steps=tuple(steps),
        runs=runs,
    )


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
