"""The bounded explorer: all interleavings, memoized, resumable.

The explorer drives :class:`~repro.mc.stepper.Stepper` replays through
the bounded transition system, prunes convergent states by canonical
digest (:mod:`repro.mc.digest`), evaluates the safety predicates
(:mod:`repro.mc.predicates`) in every newly-reached state, and records
everything in an append-only JSONL artifact (format ``repro.mc/v1``)
that is byte-identical for a fixed config and resumable after an
interruption.

Artifact grammar (one JSON object per line)::

    {"type": "header", "format": "repro.mc/v1", "config": {...}}
    {"type": "violation", "path": [...], "violations": [...]}   # 0..n
    {"type": "layer", "depth": d, "frontier": [[...], ...],
     "new_digests": [...], "pruned": k, "transitions": m}       # bfs
    {"type": "checkpoint", "expansions": e, "stack": [[...], ...],
     "new_digests": [...], "pruned": k, "transitions": m}       # dfs
    {"type": "summary", ...}

Violation records always precede the layer/checkpoint record of the
unit that found them, so a resume can truncate to the last complete
unit and regenerate the tail deterministically — an interrupted-then-
resumed artifact is byte-identical to a straight run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.campaign.scenario import Scenario
from repro.errors import ConfigurationError
from repro.faults.shrink import violation_kinds
from repro.mc.config import McConfig
from repro.mc.digest import state_digest
from repro.mc.mutations import apply_mutation
from repro.mc.predicates import check_state
from repro.mc.stepper import Label, Stepper
from repro.observability.export import check_schema
from repro.observability.registry import MODULE_MC, MetricsRegistry

#: Artifact format tag; bump on any change to the record grammar.
ARTIFACT_FORMAT = "repro.mc/v1"

#: DFS writes a resumable checkpoint after this many node expansions.
CHECKPOINT_EVERY = 200


@dataclass(slots=True)
class Violation:
    """One counterexample: a replayable path and what it violates."""

    path: tuple[Label, ...]
    violations: tuple[str, ...]

    def kinds(self) -> frozenset[str]:
        return violation_kinds(self.violations)


@dataclass(slots=True)
class ExplorationResult:
    """Outcome of one (possibly resumed) exploration."""

    config: McConfig
    states_explored: int
    states_pruned: int
    frontier_depth: int
    transitions: int
    stop_reason: str
    violations: list[Violation] = field(default_factory=list)
    visited: frozenset[str] = frozenset()

    @property
    def safe(self) -> bool:
        return not self.violations


def _encode_path(path: tuple[Label, ...]) -> list[list[Any]]:
    return [list(label) for label in path]


def _decode_path(encoded: list[list[Any]]) -> tuple[Label, ...]:
    return tuple(tuple(label) for label in encoded)


class Explorer:
    """Bounded exploration of one :class:`McConfig`, artifact-backed."""

    def __init__(
        self,
        config: McConfig,
        artifact: str | Path,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        config.validate()
        self.config = config
        self.artifact = Path(artifact)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Exploration state (populated by run/resume).
        self.visited: set[str] = set()
        self.violations: list[Violation] = []
        self.pruned = 0
        self.transitions = 0
        self.frontier_depth = 0
        self._records: list[dict[str, Any]] = []

    # -- public entry points -------------------------------------------------

    def run(self) -> ExplorationResult:
        """Explore from scratch, writing the artifact as layers complete."""
        self.artifact.parent.mkdir(parents=True, exist_ok=True)
        self._records = [
            {
                "type": "header",
                "format": ARTIFACT_FORMAT,
                "config": self.config.to_config(),
            }
        ]
        self._rewrite()
        with apply_mutation(self.config.mutation):
            initial = Stepper(self.config)
            digest0 = state_digest(initial.system)
            self.visited.add(digest0)
            unit_violations = self._examine((), initial)
            self._commit_unit(
                unit_violations,
                {
                    "type": "layer",
                    "depth": 0,
                    "frontier": [[]],
                    "new_digests": [digest0],
                    "pruned": 0,
                    "transitions": 0,
                },
            )
            if self.config.stop_on_violation and self.violations:
                return self._finish("violation")
            if self.config.strategy == "bfs":
                return self._run_bfs(frontier=[()], depth=0)
            return self._run_dfs(stack=[()], expansions=0)

    @classmethod
    def resume(
        cls, artifact: str | Path, metrics: MetricsRegistry | None = None
    ) -> ExplorationResult:
        """Continue an interrupted exploration from its artifact.

        Truncates any trailing partial unit (violations not yet sealed by
        their layer/checkpoint record) and re-explores from the last
        complete one; the finished artifact is byte-identical to a
        straight run.
        """
        records = _read_artifact(Path(artifact))
        header = records[0]
        config = McConfig.from_config(header["config"])
        explorer = cls(config, artifact, metrics=metrics)
        if records and records[-1]["type"] == "summary":
            return explorer._result_from_records(records)

        kept: list[dict[str, Any]] = [header]
        pending_violations: list[dict[str, Any]] = []
        units: list[dict[str, Any]] = []
        for record in records[1:]:
            if record["type"] == "violation":
                pending_violations.append(record)
            elif record["type"] in ("layer", "checkpoint"):
                kept.extend(pending_violations)
                pending_violations = []
                kept.append(record)
                units.append(record)
        if not units:
            # Nothing complete beyond the header: start over.
            return Explorer(config, artifact, metrics=explorer.metrics).run()
        explorer._records = kept
        for record in kept:
            if record["type"] == "violation":
                explorer.violations.append(
                    Violation(
                        path=_decode_path(record["path"]),
                        violations=tuple(record["violations"]),
                    )
                )
            elif record["type"] in ("layer", "checkpoint"):
                explorer.visited.update(record["new_digests"])
                explorer.pruned += record["pruned"]
                explorer.transitions += record["transitions"]
        explorer._rewrite()
        last = units[-1]
        with apply_mutation(config.mutation):
            if config.stop_on_violation and explorer.violations:
                return explorer._finish("violation")
            if config.strategy == "bfs":
                frontier = [_decode_path(p) for p in last["frontier"]]
                depth = last["depth"]
                explorer.frontier_depth = depth
                return explorer._run_bfs(frontier=frontier, depth=depth)
            stack = [_decode_path(p) for p in last.get("stack", [[]])]
            explorer.frontier_depth = last.get("depth", 0)
            return explorer._run_dfs(
                stack=stack, expansions=last.get("expansions", 0)
            )

    # -- breadth-first layers ------------------------------------------------

    def _run_bfs(
        self, frontier: list[tuple[Label, ...]], depth: int
    ) -> ExplorationResult:
        while frontier:
            if depth >= self.config.max_depth:
                return self._finish("max-depth")
            if len(self.visited) >= self.config.max_states:
                return self._finish("max-states")
            depth += 1
            next_frontier: list[tuple[Label, ...]] = []
            new_digests: list[str] = []
            unit_violations: list[dict[str, Any]] = []
            unit_pruned = 0
            unit_transitions = 0
            capped = False
            for path in frontier:
                parent = Stepper.replay(self.config, path)
                for label in parent.enabled():
                    child = Stepper.replay(self.config, path)
                    child.apply(label)
                    unit_transitions += 1
                    digest = state_digest(child.system)
                    if digest in self.visited:
                        unit_pruned += 1
                        continue
                    self.visited.add(digest)
                    new_digests.append(digest)
                    child_path = path + (label,)
                    violations = self._examine(child_path, child)
                    unit_violations.extend(violations)
                    if self.config.stop_on_violation and violations:
                        capped = True
                        break
                    if not violations and not child.rounds_exceeded():
                        next_frontier.append(child_path)
                    if len(self.visited) >= self.config.max_states:
                        capped = True
                        break
                if capped:
                    break
            self.pruned += unit_pruned
            self.transitions += unit_transitions
            self.frontier_depth = depth
            self._commit_unit(
                unit_violations,
                {
                    "type": "layer",
                    "depth": depth,
                    "frontier": [_encode_path(p) for p in next_frontier],
                    "new_digests": new_digests,
                    "pruned": unit_pruned,
                    "transitions": unit_transitions,
                },
            )
            if self.config.stop_on_violation and self.violations:
                return self._finish("violation")
            frontier = next_frontier
        return self._finish("exhausted")

    # -- depth-first dives ---------------------------------------------------

    def _run_dfs(
        self, stack: list[tuple[Label, ...]], expansions: int
    ) -> ExplorationResult:
        unit_violations: list[dict[str, Any]] = []
        unit_digests: list[str] = []
        unit_pruned = 0
        unit_transitions = 0
        while stack:
            if len(self.visited) >= self.config.max_states:
                self._commit_dfs_unit(
                    unit_violations, unit_digests, unit_pruned,
                    unit_transitions, stack, expansions,
                )
                return self._finish("max-states")
            path = stack.pop()
            if len(path) >= self.config.max_depth:
                continue
            parent = Stepper.replay(self.config, path)
            expansions += 1
            # Reversed push so the first enabled label is explored first.
            for label in reversed(parent.enabled()):
                child = Stepper.replay(self.config, path)
                child.apply(label)
                unit_transitions += 1
                digest = state_digest(child.system)
                if digest in self.visited:
                    unit_pruned += 1
                    continue
                self.visited.add(digest)
                unit_digests.append(digest)
                child_path = path + (label,)
                self.frontier_depth = max(self.frontier_depth, len(child_path))
                violations = self._examine(child_path, child)
                unit_violations.extend(violations)
                if self.config.stop_on_violation and violations:
                    self.pruned += unit_pruned
                    self.transitions += unit_transitions
                    self._commit_dfs_unit(
                        unit_violations, unit_digests, 0, 0, stack, expansions,
                        counters_committed=True,
                    )
                    return self._finish("violation")
                if not violations and not child.rounds_exceeded():
                    stack.append(child_path)
            if expansions % CHECKPOINT_EVERY == 0:
                self.pruned += unit_pruned
                self.transitions += unit_transitions
                self._commit_dfs_unit(
                    unit_violations, unit_digests, unit_pruned,
                    unit_transitions, stack, expansions,
                    counters_committed=True,
                )
                unit_violations = []
                unit_digests = []
                unit_pruned = 0
                unit_transitions = 0
        self.pruned += unit_pruned
        self.transitions += unit_transitions
        self._commit_dfs_unit(
            unit_violations, unit_digests, unit_pruned, unit_transitions,
            [], expansions, counters_committed=True,
        )
        return self._finish("exhausted")

    def _commit_dfs_unit(
        self,
        unit_violations: list[dict[str, Any]],
        unit_digests: list[str],
        unit_pruned: int,
        unit_transitions: int,
        stack: list[tuple[Label, ...]],
        expansions: int,
        counters_committed: bool = False,
    ) -> None:
        if not counters_committed:
            self.pruned += unit_pruned
            self.transitions += unit_transitions
        self._commit_unit(
            unit_violations,
            {
                "type": "checkpoint",
                "depth": self.frontier_depth,
                "expansions": expansions,
                "stack": [_encode_path(p) for p in stack],
                "new_digests": unit_digests,
                "pruned": unit_pruned,
                "transitions": unit_transitions,
            },
        )

    # -- shared plumbing -----------------------------------------------------

    def _examine(
        self, path: tuple[Label, ...], stepper: Stepper
    ) -> list[dict[str, Any]]:
        """Safety predicates on one new state -> violation records."""
        problems = check_state(stepper.system)
        if not problems:
            return []
        violation = Violation(path=path, violations=tuple(problems))
        self.violations.append(violation)
        return [
            {
                "type": "violation",
                "path": _encode_path(path),
                "violations": list(violation.violations),
            }
        ]

    def _commit_unit(
        self, violations: list[dict[str, Any]], unit: dict[str, Any]
    ) -> None:
        """Seal one unit of work: its violations, then the unit record."""
        self._records.extend(violations)
        self._records.append(unit)
        with self.artifact.open("a", encoding="utf-8") as sink:
            for record in violations + [unit]:
                sink.write(_dump(record))

    def _rewrite(self) -> None:
        with self.artifact.open("w", encoding="utf-8") as sink:
            for record in self._records:
                sink.write(_dump(record))

    def _finish(self, stop_reason: str) -> ExplorationResult:
        summary = {
            "type": "summary",
            "states_explored": len(self.visited),
            "states_pruned": self.pruned,
            "frontier_depth": self.frontier_depth,
            "transitions": self.transitions,
            "violations": len(self.violations),
            "stop_reason": stop_reason,
        }
        self._records.append(summary)
        with self.artifact.open("a", encoding="utf-8") as sink:
            sink.write(_dump(summary))
        self.metrics.inc(MODULE_MC, "mc_states_explored", len(self.visited))
        self.metrics.inc(MODULE_MC, "mc_states_pruned", self.pruned)
        self.metrics.gauge_max(MODULE_MC, "mc_frontier_depth", self.frontier_depth)
        return ExplorationResult(
            config=self.config,
            states_explored=len(self.visited),
            states_pruned=self.pruned,
            frontier_depth=self.frontier_depth,
            transitions=self.transitions,
            stop_reason=stop_reason,
            violations=list(self.violations),
            visited=frozenset(self.visited),
        )

    def _result_from_records(
        self, records: list[dict[str, Any]]
    ) -> ExplorationResult:
        """Parse a finished artifact into a result (no exploration)."""
        summary = records[-1]
        violations = [
            Violation(
                path=_decode_path(r["path"]),
                violations=tuple(r["violations"]),
            )
            for r in records
            if r["type"] == "violation"
        ]
        visited: set[str] = set()
        for record in records:
            if record["type"] in ("layer", "checkpoint"):
                visited.update(record["new_digests"])
        return ExplorationResult(
            config=self.config,
            states_explored=summary["states_explored"],
            states_pruned=summary["states_pruned"],
            frontier_depth=summary["frontier_depth"],
            transitions=summary["transitions"],
            stop_reason=summary["stop_reason"],
            violations=violations,
            visited=frozenset(visited),
        )


# -- artifact i/o ------------------------------------------------------------


def _dump(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _read_artifact(path: Path) -> list[dict[str, Any]]:
    if not path.exists():
        raise ConfigurationError(f"no artifact at {path}")
    records: list[dict[str, Any]] = []
    with path.open("r", encoding="utf-8") as source:
        for line in source:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                break  # a torn trailing line from an interrupted write
    if not records:
        raise ConfigurationError(f"{path} holds no {ARTIFACT_FORMAT} header")
    check_schema(records[0].get("format", ""), "repro.mc", 1)
    return records


def load_artifact(path: str | Path) -> tuple[McConfig, list[dict[str, Any]]]:
    """The artifact's config and raw records (for replay and reporting)."""
    records = _read_artifact(Path(path))
    return McConfig.from_config(records[0]["config"]), records


# -- counterexample emission -------------------------------------------------


def counterexample_scenario(config: McConfig, path: tuple[Label, ...]) -> Scenario:
    """Map one violating path onto a replayable campaign scenario.

    The explorer's path is a *schedule*; the campaign runner replays
    *behaviours*. The mapping keeps the fault structure — which seat
    misbehaved and how — and lets the campaign's own seeded scheduler
    pick the timing: the adversary modes used along the path select the
    closest attack from the transformed catalogue. The scenario uses the
    ``timeout`` muteness detector: the campaign's time-driven schedule
    must leave the attacked round open long enough to exhibit the fault
    the explorer reached with explicit scheduling, and the oracle
    detector would guard the round closed before the quorum forms. The
    emitted scenario is what ``repro mc replay --shrink`` hands to the
    campaign shrinker (under the same mutation, if one is injected).
    """
    used = {label[0] for label in path}
    attacks: tuple[tuple[int, str], ...] = ()
    if config.adversary is not None:
        if "equivocate-current" in used:
            attack = "equivocate-current"
        elif "forge-attempt" in used:
            attack = "bad-signature"
        elif "mute" in used or "drop" in used:
            attack = "mute"
        else:
            attack = None
        if attack is not None:
            attacks = ((config.adversary, attack),)
    return Scenario(
        protocol="transformed",
        n=config.n,
        seed=config.seed,
        attacks=attacks,
        muteness="timeout",
    )
