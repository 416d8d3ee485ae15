"""Greedy fault-plan shrinking: the smallest plan that still fails the
same way.

A failing campaign plan often carries clauses that have nothing to do
with the failure — the diagnostic question is always "which adversary
actually did it?". :func:`shrink_fault_plan` answers it by delta
debugging over the plan's *clauses*: repeatedly drop one clause (a mute,
a kill, a partition window, a zoo suppression/corruption/timing/storage
clause, one scalar link-noise axis), re-run the candidate at the
deterministic sim fidelity, and keep the reduction whenever the run
still violates the **same oracle kinds** (the ``progress:`` /
``convergence:`` / ``detection:`` … prefixes — exact counts and pids may
legitimately shift as the plan shrinks).

Everything is deterministic: candidate order is the fixed axis order
below, the runner is fidelity 1, and the search is bounded by
``budget`` executions — the result is reproducible for a given plan and
a hard cap on how long a shrink may take.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.campaign.oracles import kind_of
from repro.errors import ConfigurationError
from repro.faults.oracle import FidelityObservation, judge
from repro.faults.plan import FaultPlan

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


def violation_kinds(violations: Iterable[str]) -> frozenset[str]:
    """The oracle-kind prefixes of a violation list (``progress``, …)."""
    return frozenset(kind_of(v) for v in violations)


@dataclass(slots=True)
class ShrinkResult:
    """What the search found and what it cost."""

    plan: FaultPlan
    #: Oracle kinds the original plan violated (the invariant held).
    kinds: frozenset[str]
    #: Sim executions spent (the original probe included).
    runs: int
    #: Clauses removed, as ``(axis, clause)`` in removal order.
    removed: tuple[tuple[str, Any], ...]


def _without(plan: FaultPlan, axis: str, index: int) -> FaultPlan:
    clauses = getattr(plan, axis)
    return dataclasses.replace(
        plan, **{axis: clauses[:index] + clauses[index + 1 :]}
    )


def _zeroed(plan: FaultPlan, axis: str) -> FaultPlan:
    fields: dict[str, Any] = {axis: 0.0}
    if axis == "reorder":
        fields["reorder_spread"] = 0.5  # the field's inert default
    return dataclasses.replace(plan, **fields)


def shrink_fault_plan(
    plan: FaultPlan,
    *,
    budget: int = 64,
    runner: Callable[[FaultPlan], FidelityObservation] | None = None,
) -> ShrinkResult:
    """Greedily remove clauses while the same oracle kinds still fire.

    ``runner`` defaults to the fidelity-1 sim runner; tests inject a
    cheaper substitute. Raises :class:`ConfigurationError` when the
    original plan does not fail at all — there is nothing to shrink
    toward, and silently returning the input would mislabel a passing
    plan as a minimal failure.
    """
    if runner is None:
        from repro.faults.sim_runner import run_sim_plan

        runner = run_sim_plan
    plan.validate()
    runs = 1
    _verdict, violations = judge(plan, runner(plan))
    kinds = violation_kinds(violations)
    if not kinds:
        raise ConfigurationError(
            f"plan {plan.name!r} passes at the sim fidelity; only failing "
            "plans can be shrunk"
        )
    removed: list[tuple[str, Any]] = []
    current = plan
    progress = True
    while progress and runs < budget:
        progress = False
        for axis in CLAUSE_AXES:
            clauses = getattr(current, axis)
            # Walk right-to-left so surviving indices stay valid across
            # same-pass removals.
            for index in range(len(clauses) - 1, -1, -1):
                if runs >= budget:
                    break
                candidate = _without(current, axis, index)
                try:
                    candidate.validate()
                except ConfigurationError:
                    continue
                runs += 1
                _v, probe = judge(candidate, runner(candidate))
                if violation_kinds(probe) == kinds:
                    removed.append((axis, clauses[index]))
                    current = candidate
                    progress = True
        for axis in SCALAR_AXES:
            if runs >= budget:
                break
            if not getattr(current, axis):
                continue
            candidate = _zeroed(current, axis)
            try:
                candidate.validate()
            except ConfigurationError:
                continue
            runs += 1
            _v, probe = judge(candidate, runner(candidate))
            if violation_kinds(probe) == kinds:
                removed.append((axis, getattr(current, axis)))
                current = candidate
                progress = True
    return ShrinkResult(
        plan=current, kinds=kinds, runs=runs, removed=tuple(removed)
    )
