"""Tests: the adversary zoo across the campaign matrix (docs/ADVERSARIES.md).

Three layers, cheapest first:

* **Oracle catalogue** — hand-built observations against
  :func:`judge_zoo`: each family's injection/detection/attribution
  checks, the self-stabilization verdicts, and the net-fidelity
  relaxation (detection asserted only at the deterministic fidelities).
* **Presets** — every shipped zoo plan validates, covers its family,
  and the ``(F, d)`` sweep declares its expectations.
* **End-to-end** — one small plan per family through the real sim and
  loopback runners with verdict + counter assertions, plus the report's
  double-run byte-identity and v1/v2 schema tagging.
* **Shrinking** — the campaign shrinker reduces a seeded failing zoo
  plan to the clause that did it, deterministically.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults.oracle import FidelityObservation, judge_zoo, live_correct
from repro.faults.plan import FAULTS_SCHEMA, FAULTS_SCHEMA_V1, FaultPlan
from repro.faults.presets import FAULT_PRESETS
from repro.faults.report import run_cross_fidelity
from repro.faults.shrink import violation_kinds, shrink_fault_plan

#: Each family's clauses live in one FaultPlan field (docs/ADVERSARIES.md).
ZOO_FIELDS = {
    "message-adversary": "suppressions",
    "state-corruption": "corruptions",
    "timing-attack": "timing",
    "storage-flip": "storage_flips",
}

#: The zoo's preset matrices, by their name in FAULT_PRESETS.
ZOO_PRESETS = {
    name: plans for name, plans in FAULT_PRESETS.items()
    if name.startswith("zoo-")
}

#: One small plan per family; each passes at sim AND loopback in a few
#: hundred milliseconds (the heavyweight preset matrix runs under
#: ``make zoo-smoke`` instead).
FAST_PLANS = {
    "message-adversary": FaultPlan(
        name="fast-suppress",
        seed=21,
        requests=8,
        duration=6.0,
        suppressions=((1, 0.5, 2.0, 2.5),),
    ),
    "state-corruption": FaultPlan(
        name="fast-corrupt",
        seed=22,
        requests=8,
        duration=6.0,
        corruptions=((2, 2.0, "store"),),
    ),
    "timing-attack": FaultPlan(
        name="fast-timing",
        seed=23,
        requests=10,
        duration=10.0,
        mutes=((1, 2.0),),
        timing=((3, 3.0, 7.0, 3.0),),
    ),
    "storage-flip": FaultPlan(
        name="fast-storage",
        seed=24,
        requests=10,
        duration=8.0,
        kills=((2, 1.5, 4.5),),
        storage_flips=((0, 2.5, "log"),),
    ),
}


def _observation(plan: FaultPlan, fidelity: str = "sim", **zoo) -> FidelityObservation:
    """A healthy observation for ``plan`` carrying the given zoo facts."""
    live = live_correct(plan)
    return FidelityObservation(
        fidelity=fidelity,
        completed=plan.requests,
        committed={pid: plan.requests for pid in live},
        digests={pid: "d" * 16 for pid in live},
        transfers={pid: 1 for pid in plan.rejoining_pids},
        zoo=dict(zoo),
    )


class TestZooOracles:
    def test_suppression_requires_injection(self):
        plan = FAST_PLANS["message-adversary"]
        live = live_correct(plan)
        assert judge_zoo(plan, _observation(plan, suppressed=5), live) == []
        missing = judge_zoo(plan, _observation(plan, suppressed=0), live)
        assert any(v.startswith("injection:") for v in missing)

    def test_omission_must_not_convict_the_innocent(self):
        plan = FAST_PLANS["message-adversary"]
        observation = _observation(plan, suppressed=5)
        observation.declared = ((0, 2, "behavior-violation"),)
        blamed = judge_zoo(plan, observation, live_correct(plan))
        assert any(v.startswith("attribution:") for v in blamed)

    def test_corruption_wants_detection_and_recovery(self):
        plan = FAST_PLANS["state-corruption"]
        live = live_correct(plan)
        good = _observation(
            plan, corruptions_injected=1, checkpoint_mismatches=1
        )
        assert judge_zoo(plan, good, live) == []
        assert good.zoo["reconvergence"] == "recovered"
        silent = _observation(plan, corruptions_injected=1)
        assert any(
            v.startswith("detection:")
            for v in judge_zoo(plan, silent, live)
        )

    def test_reconvergence_verdicts(self):
        plan = FAST_PLANS["state-corruption"]
        live = live_correct(plan)
        diverged = _observation(
            plan, corruptions_injected=1, checkpoint_mismatches=1
        )
        diverged.digests[0] = "x" * 16
        assert any(
            "diverged" in v for v in judge_zoo(plan, diverged, live)
        )
        assert diverged.zoo["reconvergence"] == "diverged"
        stuck = _observation(
            plan, corruptions_injected=1, checkpoint_mismatches=1
        )
        stuck.completed = plan.requests - 2
        assert any("stuck" in v for v in judge_zoo(plan, stuck, live))
        assert stuck.zoo["reconvergence"] == "stuck"

    def test_timing_needs_injection_and_engagement(self):
        plan = FAST_PLANS["timing-attack"]
        live = live_correct(plan)
        good = _observation(plan, timing_delays=4, wrongful_suspicions=2)
        assert judge_zoo(plan, good, live) == []
        idle = judge_zoo(plan, _observation(plan, timing_delays=0), live)
        assert any(v.startswith("injection:") for v in idle)
        asleep = judge_zoo(
            plan,
            _observation(plan, timing_delays=4, wrongful_suspicions=0),
            live,
        )
        assert any(v.startswith("engagement:") for v in asleep)

    def test_timing_blame_must_stay_inside_the_muteness_module(self):
        plan = FAST_PLANS["timing-attack"]
        observation = _observation(
            plan, timing_delays=4, wrongful_suspicions=2
        )
        # A declaration against correct pid 2 (the attacker, pid 3, and
        # the mute, pid 1, are fair game).
        observation.declared = ((0, 2, "muteness-timeout"),)
        escaped = judge_zoo(plan, observation, live_correct(plan))
        assert any(v.startswith("attribution:") for v in escaped)

    def test_storage_flip_wants_rejection(self):
        plan = FAST_PLANS["storage-flip"]
        live = live_correct(plan)
        good = _observation(
            plan, storage_flips_injected=1, storage_rejections=1
        )
        assert judge_zoo(plan, good, live) == []
        accepted = judge_zoo(
            plan,
            _observation(plan, storage_flips_injected=1, storage_rejections=0),
            live,
        )
        assert any(v.startswith("detection:") for v in accepted)

    def test_net_fidelity_relaxes_detection_not_injection(self):
        plan = FAST_PLANS["storage-flip"]
        live = live_correct(plan)
        at_net = _observation(
            plan,
            fidelity="net",
            storage_flips_injected=1,
            storage_rejections=0,
        )
        assert judge_zoo(plan, at_net, live) == []
        no_injection = _observation(
            plan, fidelity="net", storage_flips_injected=0
        )
        assert any(
            v.startswith("injection:")
            for v in judge_zoo(plan, no_injection, live)
        )


class TestZooPresets:
    def test_every_preset_plan_validates(self):
        for plans in ZOO_PRESETS.values():
            for plan in plans:
                plan.validate()
                assert plan.has_zoo

    def test_extended_covers_all_four_families(self):
        covered = {
            field
            for plan in ZOO_PRESETS["zoo-extended"]
            for field in ZOO_FIELDS.values()
            if getattr(plan, field)
        }
        assert covered == set(ZOO_FIELDS.values())

    def test_sweep_declares_the_compounding_expectations(self):
        cells = {plan.name: plan for plan in ZOO_PRESETS["zoo-sweep"]}
        assert set(cells) == {
            "zoo-fd-F0-d1", "zoo-fd-F0-d2", "zoo-fd-F1-d1", "zoo-fd-F1-d2"
        }
        assert cells["zoo-fd-F0-d1"].expect == "pass"
        for heavy in ("zoo-fd-F0-d2", "zoo-fd-F1-d1", "zoo-fd-F1-d2"):
            assert cells[heavy].expect == "vulnerable"

    def test_fast_plans_cover_all_four_families(self):
        assert set(FAST_PLANS) == set(ZOO_FIELDS)
        for key, plan in FAST_PLANS.items():
            plan.validate()
            assert getattr(plan, ZOO_FIELDS[key])


class TestZooEndToEnd:
    @pytest.mark.parametrize("family", sorted(FAST_PLANS))
    def test_family_passes_at_both_deterministic_fidelities(self, family):
        plan = FAST_PLANS[family]
        report = run_cross_fidelity((plan,), ("sim", "loopback"))
        assert report.ok, [
            result.outcomes for result in report.results
        ]
        for result in report.results:
            for fidelity, (verdict, violations, observation) in (
                result.outcomes.items()
            ):
                assert verdict == "pass", (fidelity, violations)
                assert observation.zoo  # the family actually ran

    def test_report_is_byte_identical_across_runs(self):
        plans = (
            FAST_PLANS["message-adversary"],
            FAST_PLANS["state-corruption"],
        )
        first = run_cross_fidelity(plans, ("sim", "loopback"))
        second = run_cross_fidelity(plans, ("sim", "loopback"))
        assert first.dumps() == second.dumps()
        assert first.to_record()["schema"] == FAULTS_SCHEMA

    def test_v1_only_report_keeps_the_v1_schema(self):
        plan = FaultPlan(name="v1-fast", seed=3, requests=6, duration=4.0)
        report = run_cross_fidelity((plan,), ("sim",))
        assert report.to_record()["schema"] == FAULTS_SCHEMA_V1


class TestShrink:
    #: Fails at sim with {progress} kinds; only the suppression clause
    #: matters — the mute and the duplication noise are bystanders.
    SEEDED_FAILING = FaultPlan(
        name="shrink-seeded",
        seed=5,
        requests=6,
        duration=4.0,
        mutes=((1, 3.5),),
        duplication=0.05,
        suppressions=((2, 0.5, 0.5, 2.5),),
    )

    def test_shrinks_to_the_guilty_clause(self):
        result = shrink_fault_plan(self.SEEDED_FAILING)
        assert result.kinds == frozenset({"progress"})
        assert result.minimal.suppressions == self.SEEDED_FAILING.suppressions
        assert result.minimal.mutes == ()
        assert result.minimal.duplication == 0.0
        assert {axis for axis, _clause in result.steps} == {
            "mutes", "duplication"
        }

    def test_shrink_is_deterministic(self):
        a = shrink_fault_plan(self.SEEDED_FAILING)
        b = shrink_fault_plan(self.SEEDED_FAILING)
        assert a.minimal.plan_id == b.minimal.plan_id
        assert a.steps == b.steps
        assert a.runs == b.runs

    def test_passing_plans_refuse_to_shrink(self):
        healthy = FaultPlan(name="healthy", seed=5, requests=6, duration=4.0)
        with pytest.raises(ConfigurationError):
            shrink_fault_plan(healthy)

    def test_budget_bounds_the_search(self):
        calls = 0

        def runner(plan: FaultPlan) -> FidelityObservation:
            nonlocal calls
            calls += 1
            return FidelityObservation(fidelity="sim")  # fails everything

        result = shrink_fault_plan(
            self.SEEDED_FAILING, budget=3, runner=runner
        )
        assert result.runs <= 3
        assert calls <= 3

    def test_violation_kinds_strip_details(self):
        assert violation_kinds(
            ["progress: 1/6", "progress: replica 0", "detection: x"]
        ) == frozenset({"progress", "detection"})
