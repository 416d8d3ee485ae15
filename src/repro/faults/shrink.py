"""Fault-plan shrinking: the smallest plan that still fails the same way.

A failing campaign plan often carries clauses that have nothing to do
with the failure — the diagnostic question is always "which adversary
actually did it?". :func:`shrink_fault_plan` answers it with the one
delta-debugging loop (:func:`repro.campaign.shrink.shrink`) over the
plan's *clauses*: a neighbour drops one clause (a mute, a kill, a
partition window, a zoo suppression/corruption/timing/storage clause)
or zeroes one scalar link-noise axis, and runs at the deterministic sim
fidelity. Candidate order is the fixed axis order below, so the result
is reproducible for a given plan.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterator

from repro.campaign.oracles import violation_kinds
from repro.campaign.shrink import DEFAULT_BUDGET, ShrinkResult, shrink
from repro.errors import ConfigurationError
from repro.faults.oracle import FidelityObservation, judge
from repro.faults.plan import FaultPlan
from repro.faults.sim_runner import run_sim_plan

#: Tuple-of-clauses plan fields the shrinker removes element-wise, in
#: the deterministic order candidates are attempted.
CLAUSE_AXES: tuple[str, ...] = (
    "suppressions",
    "corruptions",
    "timing",
    "storage_flips",
    "collusion",
    "flips",
    "partitions",
    "kills",
    "mutes",
)

#: Scalar link-noise fields, zeroed as a whole (with ``reorder_spread``
#: riding along once ``reorder`` is gone — it is inert without it).
SCALAR_AXES: tuple[str, ...] = ("loss", "duplication", "reorder")


def _neighbours(
    plan: FaultPlan,
) -> Iterator[tuple[tuple[str, Any], FaultPlan]]:
    """One clause fewer, or one scalar axis zeroed; labelled
    ``(axis, removed clause or value)``."""
    for axis in CLAUSE_AXES:
        clauses = getattr(plan, axis)
        for index in range(len(clauses) - 1, -1, -1):
            yield (axis, clauses[index]), dataclasses.replace(
                plan, **{axis: clauses[:index] + clauses[index + 1 :]}
            )
    for axis in SCALAR_AXES:
        value = getattr(plan, axis)
        if value:
            fields: dict[str, Any] = {axis: 0.0}
            if axis == "reorder":
                fields["reorder_spread"] = 0.5  # the field's inert default
            yield (axis, value), dataclasses.replace(plan, **fields)


def shrink_fault_plan(
    plan: FaultPlan,
    *,
    budget: int = DEFAULT_BUDGET,
    runner: Callable[[FaultPlan], FidelityObservation] = run_sim_plan,
) -> ShrinkResult:
    """Remove clauses while the same oracle kinds still fire.

    ``runner`` defaults to the fidelity-1 sim runner; tests inject a
    cheaper substitute. ``outcome`` is the minimal plan's violation
    list. Raises :class:`ConfigurationError` when the original plan does
    not fail at all — silently returning the input would mislabel a
    passing plan as a minimal failure.
    """

    def probe(candidate: FaultPlan) -> tuple[frozenset[str], list[str]]:
        _verdict, violations = judge(candidate, runner(candidate))
        return violation_kinds(violations), violations

    result = shrink(plan, _neighbours, probe, budget)
    if not result.kinds:
        raise ConfigurationError(
            f"plan {plan.name!r} passes at the sim fidelity; only failing "
            "plans can be shrunk"
        )
    return result
