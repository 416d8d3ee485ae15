"""The oracle catalogue: what a finished scenario run is judged against.

Three oracle families evaluate every campaign run:

1. **Consensus invariants** — Termination / Agreement / (Vector)
   Validity via :mod:`repro.analysis.properties`. For transformed
   protocols any violation is a genuine failure; for crash-model
   protocols *under Byzantine attack* violations are the paper's point
   (the Figure-2 victim experiments), so they downgrade the verdict to
   ``expected-vulnerability`` instead of ``fail``.

2. **Detection soundness** — no correct process is ever declared faulty
   by a correct process (false positives break the transformation's
   liveness argument), and the muteness oracle never wrongly convicts.

3. **Detection attribution** — the modularity claim itself. Every
   behaviour flag a correct process raises against an injected attacker
   is classified into the Figure-1 module that raised it (signature /
   non-muteness automaton / certification analyser / muteness detector)
   and recorded in the artifact. Enforcement happens at the granularity
   the implementation guarantees deterministically across seats and
   schedules: identity falsification must be flagged by the signature
   module, muteness by the muteness detector, and the five remaining
   classes by the receiver-side verification pair — the Figure-4
   behaviour automaton runs the certification analysers *inside* its
   transitions, so which of the two names a violation first depends on
   the interleaving (an equivocation branch may arrive as an
   out-of-order receipt before its certificate is analysed), while the
   pair as a whole is schedule-independent. An attacker that raises no
   behaviour flag at all was benign under this schedule (e.g. a
   round-2 attack in a world that decides in round 1) and is recorded
   as ``undetected`` rather than failed: detection completeness within
   a bounded virtual horizon is not a property the paper claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.analysis.properties import (
    DetectionReport,
    PropertyReport,
    check_crash_consensus,
    check_detection,
    check_vector_consensus,
)
from repro.byzantine import CRASH_ATTACKS, TRANSFORMED_ATTACKS
from repro.byzantine.ct_attacks import CT_ATTACKS
from repro.byzantine.faults import DetectingModule, FailureClass, FaultProfile
from repro.campaign.scenario import Scenario
from repro.systems import ConsensusSystem

#: Verdict vocabulary, ordered from best to worst.
VERDICT_PASS = "pass"
VERDICT_EXPECTED_VULNERABILITY = "expected-vulnerability"
VERDICT_FAIL = "fail"

#: The receiver-side verification pair: the behaviour automaton and the
#: certification analysers share one receive path (see module docstring).
_VERIFICATION_PAIR = frozenset(
    {DetectingModule.NON_MUTENESS_DETECTOR, DetectingModule.CERTIFICATION}
)


def acceptable_modules(profile: FaultProfile) -> frozenset[DetectingModule]:
    """Modules that may legitimately flag a fault of this profile."""
    if profile.detecting_module is DetectingModule.SIGNATURE:
        return frozenset({DetectingModule.SIGNATURE})
    if profile.detecting_module is DetectingModule.MUTENESS_DETECTOR:
        return frozenset({DetectingModule.MUTENESS_DETECTOR})
    return _VERIFICATION_PAIR

#: Reason-string prefixes raised by the signature module (see
#: ``TransformedConsensusProcess._declare``).
_SIGNATURE_PREFIX = "signature module:"
#: Reason-string prefixes raised by the behaviour automaton (Figure 4).
_AUTOMATON_PREFIXES = ("out-of-order", "identity mismatch", "unexpected")


def classify_fault_reason(reason: str) -> DetectingModule:
    """Map one ``FaultReport.reason`` string to its raising module.

    The monitor bank funnels every declaration through one ledger, so
    the module boundary is recovered from the (stable, tested) reason
    vocabulary: the signature module prefixes its reasons, the automaton
    raises out-of-order / identity-mismatch reasons, and everything else
    comes out of the certification analysers (including the equivocation
    ledger, which proves value corruption from signed evidence).
    """
    if reason.startswith(_SIGNATURE_PREFIX):
        return DetectingModule.SIGNATURE
    if reason.startswith(_AUTOMATON_PREFIXES):
        return DetectingModule.NON_MUTENESS_DETECTOR
    return DetectingModule.CERTIFICATION


@dataclass(slots=True)
class ScenarioOutcome:
    """Everything the oracle catalogue concluded about one run."""

    verdict: str
    properties: PropertyReport
    detection: DetectionReport | None
    #: culprit pid -> sorted module names that flagged it (correct
    #: processes only).
    attribution: dict[int, list[str]]
    #: campaign-level oracle violations (empty unless ``verdict=fail``,
    #: or the run is an expected vulnerability).
    violations: list[str] = field(default_factory=list)
    #: failure classes the scenario injects (taxonomy coverage).
    failure_classes: list[str] = field(default_factory=list)
    undetected: list[int] = field(default_factory=list)

    def to_record(self) -> dict[str, Any]:
        """JSON-ready rendering for the campaign artifact."""
        record: dict[str, Any] = {
            "verdict": self.verdict,
            "properties": {
                "termination": self.properties.termination,
                "agreement": self.properties.agreement,
                "validity": self.properties.validity,
                "violations": list(self.properties.violations),
            },
            "attribution": {
                str(pid): modules for pid, modules in sorted(self.attribution.items())
            },
            "violations": list(self.violations),
            "failure_classes": sorted(self.failure_classes),
            "undetected": sorted(self.undetected),
        }
        if self.detection is not None:
            record["detection"] = {
                "convictions": {
                    str(pid): count
                    for pid, count in sorted(
                        self.detection.detectors_per_culprit.items()
                    )
                },
                "false_positives": {
                    str(pid): sorted(accusers)
                    for pid, accusers in sorted(
                        self.detection.false_positives.items()
                    )
                },
                "suspected": sorted(self.detection.suspected_by_any),
            }
        return record


def attack_profile(scenario: Scenario, name: str) -> FaultProfile:
    """The taxonomy profile of ``name`` under the scenario's protocol."""
    if scenario.protocol == "transformed":
        return TRANSFORMED_ATTACKS[name].profile
    if scenario.protocol == "transformed-ct":
        return CT_ATTACKS[name].profile
    return CRASH_ATTACKS[name].profile


def injected_failure_classes(scenario: Scenario) -> list[str]:
    """The taxonomy failure classes the scenario's fault plan realises."""
    classes = {
        attack_profile(scenario, name).failure_class.value
        for _, name in scenario.attacks
    }
    if scenario.crashes:
        classes.add(FailureClass.MUTENESS.value)
    if scenario.collusion is not None:
        # Amplified equivocation is coordinated value corruption.
        classes.add(FailureClass.VALUE_CORRUPTION.value)
    return sorted(classes)


def observed_attribution(system: ConsensusSystem) -> dict[int, set[DetectingModule]]:
    """Which modules of which correct processes flagged which pids.

    Reads the monitor banks (behaviour flags, classified per
    :func:`classify_fault_reason`) and the detector ``suspected`` sets
    (muteness flags) of every correct process.
    """
    flagged: dict[int, set[DetectingModule]] = {}
    for pid in system.correct_pids:
        process = system.processes[pid]
        bank = getattr(process, "monitor_bank", None)
        if bank is not None:
            for report in bank.reports:
                flagged.setdefault(report.culprit, set()).add(
                    classify_fault_reason(report.reason)
                )
        detector = getattr(process, "detector", None)
        if detector is not None:
            for suspect in detector.suspected:
                flagged.setdefault(suspect, set()).add(
                    DetectingModule.MUTENESS_DETECTOR
                )
    return flagged


def evaluate_outcome(scenario: Scenario, system: ConsensusSystem) -> ScenarioOutcome:
    """Run the full oracle catalogue over a finished system."""
    violations: list[str] = []
    if scenario.is_transformed:
        properties = check_vector_consensus(system)
    else:
        properties = check_crash_consensus(system)

    byzantine_injected = bool(scenario.attacks) or scenario.collusion is not None
    crash_model_under_attack = byzantine_injected and not scenario.is_transformed

    if not properties.all_hold and not crash_model_under_attack:
        violations.extend(
            f"property: {violation}" for violation in properties.violations
        )

    detection: DetectionReport | None = None
    attribution: dict[int, list[str]] = {}
    undetected: list[int] = []
    if scenario.is_transformed:
        detection = check_detection(system)
        for victim, accusers in sorted(detection.false_positives.items()):
            violations.append(
                f"detection: correct process {victim} declared faulty by "
                f"correct processes {sorted(accusers)}"
            )
        flagged = observed_attribution(system)
        for culprit in sorted(flagged):
            attribution[culprit] = sorted(
                module.value for module in flagged[culprit]
            )
        # Muteness soundness: the ◇-detectors may *suspect* correct
        # processes transiently, but an injected culprit must never be a
        # correct pid — flags against correct pids from the behaviour
        # modules are the false positives already checked above.
        for pid, name in scenario.attacks:
            profile = attack_profile(scenario, name)
            modules = flagged.get(pid, set())
            acceptable = acceptable_modules(profile)
            if profile.detecting_module is DetectingModule.MUTENESS_DETECTOR:
                if DetectingModule.MUTENESS_DETECTOR not in modules:
                    undetected.append(pid)
                continue
            # The muteness oracle suspects every ground-truth-faulty pid
            # as background; only *behaviour* flags attribute a failure
            # class to a module.
            behaviour = modules - {DetectingModule.MUTENESS_DETECTOR}
            if not behaviour:
                undetected.append(pid)
                continue
            if not behaviour & acceptable:
                violations.append(
                    f"attribution: attack {name!r} on p{pid} "
                    f"(class {profile.failure_class.value}) was flagged by "
                    f"{sorted(m.value for m in behaviour)}, outside its "
                    f"designated module set "
                    f"{sorted(m.value for m in acceptable)}"
                )
        if scenario.collusion is not None:
            for seat in (0, scenario.n - 1):
                if seat not in flagged:
                    undetected.append(seat)

    if violations:
        verdict = VERDICT_FAIL
    elif crash_model_under_attack and not properties.all_hold:
        verdict = VERDICT_EXPECTED_VULNERABILITY
    else:
        verdict = VERDICT_PASS
    return ScenarioOutcome(
        verdict=verdict,
        properties=properties,
        detection=detection,
        attribution=attribution,
        violations=violations,
        failure_classes=injected_failure_classes(scenario),
        undetected=sorted(undetected),
    )


def kind_of(violation: str) -> str:
    """The oracle kind of one violation string: the part before the
    first ``:`` (``progress``, ``attribution``, …). Every oracle
    catalogue words its violations ``<kind>: <detail>``."""
    return violation.split(":", 1)[0]


def violation_kinds(outcome_record: Mapping[str, Any]) -> frozenset[str]:
    """Coarse violation signature used by the shrinking pass.

    Two scenarios "fail the same way" when the kinds coincide — the
    fine-grained text carries pids and values that legitimately change
    while shrinking.
    """
    kinds = set()
    for violation in outcome_record.get("violations", ()):
        kinds.add(kind_of(violation))
    for violation in outcome_record.get("properties", {}).get("violations", ()):
        kinds.add(kind_of(violation))
    return frozenset(kinds)
