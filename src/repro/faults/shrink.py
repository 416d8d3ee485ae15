"""Delta debugging, written once: the smallest input that fails the same way.

:func:`shrink` is the one greedy loop behind every minimiser in the
tree. It re-runs structurally smaller *neighbours* of the current
candidate in the fixed order a generator yields them, skips any that do
not ``validate()``, adopts the first one that still fails with the same
violation kinds (per :func:`violation_kinds`: exact counts and pids may
legitimately shift as the input shrinks), and restarts from it. It stops
when no neighbour is adopted or ``budget`` runs, the start's included,
are spent — so the reported minimum is stable across machines and runs,
and a shrink has a hard cost cap.

Callers only say what "smaller" means:

* :func:`shrink_fault_plan` (fault plans): drop one clause (a mute, a
  kill, a partition window, a zoo suppression/corruption/timing/storage
  clause) or zero one scalar link-noise axis, and run at the
  deterministic sim fidelity. Candidate order is the fixed axis order
  below, so the result is reproducible for a given plan — the
  diagnostic question is always "which adversary actually did it?";
* :func:`repro.campaign.shrink.shrink_scenario` (campaign scenarios, and
  ``repro mc replay --shrink``'s counterexamples): drop one faulty
  process, shrink ``n``, heal the wire, flatten the delay model to
  ``fixed``, zero the seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import ConfigurationError
from repro.faults.oracle import FidelityObservation, judge
from repro.faults.plan import FaultPlan
from repro.faults.sim_runner import run_sim_plan

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


def kind_of(violation: str) -> str:
    """The oracle kind of one violation string: the part before the
    first ``:`` (``progress``, ``attribution``, …). Every oracle
    catalogue words its violations ``<kind>: <detail>``."""
    return violation.split(":", 1)[0]


def violation_kinds(
    violations: Mapping[str, Any] | Iterable[str],
) -> frozenset[str]:
    """Coarse violation signature used by the shrinkers.

    Takes a list of violation strings, or an outcome record, whose
    oracle and property violations count together. Two runs "fail the
    same way" when the kinds coincide — the fine-grained text carries
    pids and values that legitimately change while shrinking.
    """
    if isinstance(violations, Mapping):
        violations = (
            *violations.get("violations", ()),
            *violations.get("properties", {}).get("violations", ()),
        )
    return frozenset(kind_of(violation) for violation in violations)


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
