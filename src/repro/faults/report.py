"""Cross-fidelity campaign: run plans at every fidelity, compare verdicts.

The headline artifact of :mod:`repro.faults` is the
:class:`CrossFidelityReport`: for each plan, the verdict (``pass`` /
``expected-vulnerability`` / ``fail``) at every requested fidelity plus
an ``agree`` flag per plan and ``all_agree`` overall. Fidelities 1 and 2
are deterministic — their report sections are byte-identical across runs
for a fixed seed (the ``make faults-smoke`` double-run ``cmp`` pins
this); fidelity 3 is verdict-stable only, so its observation extras are
excluded from the canonical serialisation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.faults.loopback_runner import run_loopback_plan
from repro.faults.net_runner import run_net_plan
from repro.faults.oracle import FidelityObservation, judge, net_checks
from repro.faults.plan import (
    FAULTS_SCHEMA,
    FAULTS_SCHEMA_V1,
    FIDELITIES,
    FIDELITY_LOOPBACK,
    FIDELITY_NET,
    FIDELITY_SIM,
    FaultPlan,
)
from repro.faults.sim_runner import run_sim_plan

#: The deterministic fidelities whose report sections must be
#: byte-identical across runs at a fixed seed.
DETERMINISTIC_FIDELITIES = (FIDELITY_SIM, FIDELITY_LOOPBACK)


def run_plan(
    plan: FaultPlan,
    fidelity: str,
    *,
    workdir: str | Path | None = None,
    timeout: float = 180.0,
) -> FidelityObservation:
    """Execute one plan at one fidelity."""
    if fidelity == FIDELITY_SIM:
        return run_sim_plan(plan)
    if fidelity == FIDELITY_LOOPBACK:
        return run_loopback_plan(plan)
    if fidelity == FIDELITY_NET:
        return run_net_plan(plan, workdir=workdir, timeout=timeout)
    raise ConfigurationError(
        f"unknown fidelity {fidelity!r}; known: {list(FIDELITIES)}"
    )


@dataclass(slots=True)
class PlanResult:
    """One plan's verdicts and observations across fidelities."""

    plan: FaultPlan
    #: fidelity -> (verdict, violations, observation)
    outcomes: dict[str, tuple[str, list[str], FidelityObservation]] = field(
        default_factory=dict
    )
    #: Flake-hunting data (``--rehunt``): fidelity -> verdict -> count
    #: over the original run plus every re-run. ``None`` when the plan's
    #: verdicts agreed (or rehunting was off) — the field then stays out
    #: of :meth:`to_record` entirely, so clean deterministic reports keep
    #: their double-run byte-identity.
    rehunt: dict[str, dict[str, int]] | None = None

    @property
    def verdicts(self) -> dict[str, str]:
        return {
            fidelity: verdict
            for fidelity, (verdict, _v, _o) in self.outcomes.items()
        }

    @property
    def agree(self) -> bool:
        return len(set(self.verdicts.values())) == 1

    @property
    def expected(self) -> bool:
        """Every fidelity reached the verdict the plan declares."""
        wanted = (
            "pass" if self.plan.expect == "pass" else "expected-vulnerability"
        )
        return all(v == wanted for v in self.verdicts.values())

    def to_record(self) -> dict[str, Any]:
        fidelities: dict[str, Any] = {}
        for fidelity, (verdict, violations, observation) in sorted(
            self.outcomes.items()
        ):
            entry: dict[str, Any] = {
                "verdict": verdict,
                "violations": list(violations),
            }
            # Only the deterministic fidelities expose their raw
            # observation: fidelity 3's numbers vary run to run and
            # would break the double-run byte-identity contract. It
            # names the checks only a real cluster can make instead.
            if fidelity == FIDELITY_NET:
                entry["checks"] = list(net_checks(self.plan))
            if fidelity in DETERMINISTIC_FIDELITIES:
                entry["observation"] = {
                    "completed": observation.completed,
                    "committed": {
                        str(pid): count
                        for pid, count in sorted(observation.committed.items())
                    },
                    "digests": {
                        str(pid): digest
                        for pid, digest in sorted(observation.digests.items())
                    },
                    "transfers": {
                        str(pid): count
                        for pid, count in sorted(observation.transfers.items())
                    },
                    "declared": [list(entry) for entry in observation.declared],
                    "flips_injected": observation.flips_injected,
                    "signature_rejections": observation.signature_rejections,
                }
                # Zoo facts only appear for zoo plans, keeping v1 plan
                # records byte-identical.
                if observation.zoo:
                    entry["observation"]["zoo"] = {
                        key: value
                        for key, value in sorted(observation.zoo.items())
                    }
            fidelities[fidelity] = entry
        record = {
            "plan_id": self.plan.plan_id,
            "name": self.plan.name,
            "expect": self.plan.expect,
            "config": self.plan.to_config(),
            "fidelities": fidelities,
            "agree": self.agree,
            "expected": self.expected,
        }
        if self.rehunt is not None:
            record["rehunt"] = {
                fidelity: dict(sorted(counts.items()))
                for fidelity, counts in sorted(self.rehunt.items())
            }
        return record


@dataclass(slots=True)
class CrossFidelityReport:
    """The campaign artifact: verdict agreement across fidelities."""

    fidelities: tuple[str, ...]
    results: list[PlanResult] = field(default_factory=list)

    @property
    def all_agree(self) -> bool:
        return all(result.agree for result in self.results)

    @property
    def all_expected(self) -> bool:
        return all(result.expected for result in self.results)

    @property
    def ok(self) -> bool:
        return self.all_agree and self.all_expected

    def to_record(self) -> dict[str, Any]:
        # Like FaultPlan.save: tag with the lowest schema version able
        # to express the content, so reports over v1-only plans stay
        # byte-identical to their PR-8 form.
        schema = (
            FAULTS_SCHEMA
            if any(result.plan.has_zoo for result in self.results)
            else FAULTS_SCHEMA_V1
        )
        return {
            "schema": schema,
            "kind": "cross-fidelity-report",
            "fidelities": list(self.fidelities),
            "plans": [result.to_record() for result in self.results],
            "all_agree": self.all_agree,
            "all_expected": self.all_expected,
            "ok": self.ok,
        }

    def dumps(self) -> str:
        """Canonical JSON: byte-identical for identical deterministic runs."""
        return (
            json.dumps(
                self.to_record(),
                indent=2,
                sort_keys=True,
                separators=(",", ": "),
            )
            + "\n"
        )

    def save(self, path: str | Path) -> Path:
        target = Path(path)
        target.write_text(self.dumps(), encoding="utf-8")
        return target


def run_cross_fidelity(
    plans: tuple[FaultPlan, ...],
    fidelities: tuple[str, ...],
    *,
    workdir: str | Path | None = None,
    timeout: float = 180.0,
    progress: Any = None,
    rehunt: int = 0,
) -> CrossFidelityReport:
    """Run every plan at every fidelity and assemble the report.

    With ``rehunt > 0``, any plan whose fidelities *disagree* is re-run
    ``rehunt`` more times at every fidelity and the verdict distribution
    (original run included, so the counts sum to ``1 + rehunt``) lands in
    the plan's record — the flake-hunting mode that tells a
    nondeterministic fidelity-3 verdict apart from a genuine
    cross-fidelity divergence. Agreeing plans are never re-run, so clean
    deterministic reports stay byte-identical whatever ``rehunt`` is.
    """
    if rehunt < 0:
        raise ConfigurationError(f"rehunt must be >= 0, got {rehunt}")
    for fidelity in fidelities:
        if fidelity not in FIDELITIES:
            raise ConfigurationError(
                f"unknown fidelity {fidelity!r}; known: {list(FIDELITIES)}"
            )
    report = CrossFidelityReport(fidelities=tuple(fidelities))

    def attempt(
        plan: FaultPlan, fidelity: str, rerun: int | None = None
    ) -> tuple[str, list[str], FidelityObservation]:
        label, tag = "", ""
        if rerun is not None:
            label, tag = f" rehunt {rerun + 1}/{rehunt}", f"-rehunt{rerun}"
        if progress is not None:
            progress(f"{plan.name} [{plan.plan_id}] @ {fidelity}{label}")
        subdir = None
        if workdir is not None:
            subdir = Path(workdir) / f"{plan.plan_id}-{fidelity}{tag}"
        observation = run_plan(plan, fidelity, workdir=subdir, timeout=timeout)
        return (*judge(plan, observation), observation)

    for plan in plans:
        plan.validate()
        result = PlanResult(plan=plan)
        for fidelity in fidelities:
            result.outcomes[fidelity] = attempt(plan, fidelity)
        if rehunt > 0 and not result.agree:
            distribution: dict[str, dict[str, int]] = {
                fidelity: {result.verdicts[fidelity]: 1}
                for fidelity in fidelities
            }
            for rerun in range(rehunt):
                for fidelity in fidelities:
                    verdict = attempt(plan, fidelity, rerun)[0]
                    counts = distribution[fidelity]
                    counts[verdict] = counts.get(verdict, 0) + 1
            result.rehunt = distribution
        report.results.append(result)
    return report
