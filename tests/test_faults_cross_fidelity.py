"""Tests: the cross-fidelity judge and the deterministic report contract.

The headline artifact of ``repro.faults`` (docs/FAULTS.md) is the
:class:`CrossFidelityReport`: one verdict per (plan, fidelity), an
``agree`` flag per plan, and byte-identical canonical JSON across runs
at the deterministic fidelities. These tests pin the judge's oracle
catalogue on hand-built observations, then run the real smoke matrix at
fidelities 1–2 twice and ``assert`` the bytes match. The subprocess
fidelity is exercised separately (``tests/test_faults_net.py`` and
``make faults-smoke``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

from repro.faults.loopback_runner import _LoopbackRun
from repro.faults.oracle import (
    FidelityObservation,
    judge,
    live_correct,
    NET_CHECKS,
    ClusterFacts,
    ReplicaFacts,
    judge_net,
    judge_service,
    net_checks,
    observe,
    settled,
)
from repro.faults.plan import FIDELITIES, FaultPlan
from repro.faults.presets import FAULT_PRESETS
from repro.faults.report import run_cross_fidelity, run_plan
from repro.observability.registry import (
    MODULE_FAULTS,
    MODULE_MUTENESS,
    MODULE_SERVICE,
    MODULE_SIGNATURE,
    MODULE_ZOO,
)


def _healthy(plan: FaultPlan, fidelity: str = "sim") -> FidelityObservation:
    """An observation every oracle is happy with."""
    live = live_correct(plan)
    return FidelityObservation(
        fidelity=fidelity,
        completed=plan.requests,
        committed={pid: plan.requests for pid in live},
        digests={pid: "d" * 16 for pid in live},
        transfers={pid: 1 for pid in plan.rejoining_pids},
        flips_injected=len(plan.flips),
        signature_rejections=len(plan.flips),
    )


class TestLiveCorrect:
    def test_muted_and_dead_replicas_are_excused(self):
        plan = FaultPlan(
            name="x",
            mutes=((1, 2.0),),
            duration=12.0,
        )
        assert live_correct(plan) == frozenset({0, 2, 3})

    def test_rejoining_replicas_are_still_accountable(self):
        plan = FaultPlan(name="x", duration=12.0, kills=((2, 3.0, 6.0),))
        assert live_correct(plan) == frozenset({0, 1, 2, 3})
        gone = FaultPlan(name="x", duration=12.0, kills=((2, 3.0, None),))
        assert live_correct(gone) == frozenset({0, 1, 3})


class TestJudge:
    def test_healthy_run_passes(self):
        plan = FaultPlan(name="ok", requests=8)
        verdict, violations = judge(plan, _healthy(plan))
        assert (verdict, violations) == ("pass", [])

    def test_incomplete_workload_fails(self):
        plan = FaultPlan(name="slow", requests=8)
        observation = _healthy(plan)
        observation.completed = 5
        verdict, violations = judge(plan, observation)
        assert verdict == "fail"
        assert any("progress" in v for v in violations)

    def test_divergent_digests_fail(self):
        plan = FaultPlan(name="split", requests=8)
        observation = _healthy(plan)
        observation.digests[3] = "e" * 16
        verdict, violations = judge(plan, observation)
        assert verdict == "fail"
        assert any("diverge" in v for v in violations)

    def test_missing_transfer_fails_recovery(self):
        plan = FaultPlan(
            name="rejoin", requests=8, duration=12.0, kills=((2, 3.0, 6.0),)
        )
        observation = _healthy(plan)
        observation.transfers = {}
        verdict, violations = judge(plan, observation)
        assert verdict == "fail"
        assert any("recovery" in v for v in violations)

    def test_undetected_flip_fails(self):
        plan = FaultPlan(name="flip", requests=8, flips=((1, 1.0, 2),))
        observation = _healthy(plan)
        observation.signature_rejections = 0
        observation.declared = ()
        verdict, violations = judge(plan, observation)
        assert verdict == "fail"
        assert any("detection" in v for v in violations)

    def test_flip_detected_by_declaration_passes(self):
        plan = FaultPlan(name="flip", requests=8, flips=((1, 1.0, 2),))
        observation = _healthy(plan)
        observation.signature_rejections = 0
        observation.declared = (
            (0, 1, "signature module: invalid signature"),
        )
        assert judge(plan, observation) == ("pass", [])

    def test_flip_misattributed_to_the_automaton_fails(self):
        # The innocent flipped sender must never be convicted by the
        # behaviour automaton (Figure 4) on a noise-free plan.
        plan = FaultPlan(name="flip", requests=8, flips=((1, 1.0, 2),))
        observation = _healthy(plan)
        observation.declared = (
            (0, 1, "out-of-order: CURRENT for round 2 while the peer's "
             "stream is at round 1"),
        )
        verdict, violations = judge(plan, observation)
        assert verdict == "fail"
        assert any("attribution" in v for v in violations)

    def test_misattribution_oracle_waived_under_link_noise(self):
        plan = FaultPlan(
            name="flip-noise", requests=8, flips=((1, 1.0, 2),), loss=0.05
        )
        observation = _healthy(plan)
        observation.declared = (
            (0, 1, "out-of-order: CURRENT for round 2 while the peer's "
             "stream is at round 1"),
        )
        assert judge(plan, observation) == ("pass", [])

    def test_vulnerable_expectation_downgrades_fail(self):
        plan = FaultPlan(name="known", requests=8, expect="vulnerable")
        observation = _healthy(plan)
        observation.completed = 0
        verdict, _violations = judge(plan, observation)
        assert verdict == "expected-vulnerability"


class TestServiceState:
    """The service-state checks on hand-built facts: each fires on its
    own defect, and each stands down where its facts are missing."""

    PLAN = FaultPlan(name="svc", requests=4, duration=12.0)
    WRITES = frozenset({(9, req_id) for req_id in range(4)})

    @classmethod
    def _facts(cls, **overrides) -> ReplicaFacts:
        fields = dict(
            committed=4,
            digest="d" * 16,
            checkpoints=((2, "c2"), (4, "c4")),
            checkpoint_mismatches=0,
            certificate_valid=True,
            executed=cls.WRITES,
            applied=4,
        )
        fields.update(overrides)
        return ReplicaFacts(**fields)

    def _judge(self, plan, replicas, fidelity="sim", writes=WRITES):
        observation = observe(
            plan,
            fidelity,
            completed=plan.requests,
            replicas=replicas,
            declarations=(),
            injected=lambda module, name: 0,
            extras={},
            writes=writes,
        )
        return judge_service(plan, observation, live_correct(plan))

    def _with(self, pid, plan=None, **overrides):
        plan = plan or self.PLAN
        replicas = {p: self._facts() for p in range(plan.n_replicas)}
        replicas[pid] = self._facts(**overrides)
        return self._judge(plan, replicas)

    def test_healthy_facts_pass(self):
        assert self._with(0) == []
        plan = FaultPlan(name="ok", requests=4)
        observation = _healthy(plan)
        observation.facts = {pid: self._facts() for pid in range(4)}
        observation.writes = self.WRITES
        assert judge(plan, observation) == ("pass", [])

    def test_two_digests_at_one_count_fail(self):
        violations = self._with(1, checkpoints=((2, "c2"), (4, "other")))
        assert violations == [
            "convergence: checkpoint 4 has 2 distinct digests across live "
            "correct replicas"
        ]

    def test_a_certified_digest_mismatch_fails(self):
        (violation,) = self._with(2, checkpoint_mismatches=1)
        assert violation.startswith("convergence: replica 2 observed")

    def test_an_invalid_stable_certificate_fails(self):
        (violation,) = self._with(3, certificate_valid=False)
        assert violation.startswith("certificate: replica 3")

    def test_a_completed_write_nobody_executed_fails(self):
        replicas = {
            pid: self._facts(executed=self.WRITES - {(9, 0)})
            for pid in range(4)
        }
        (violation,) = self._judge(self.PLAN, replicas)
        assert violation.startswith("exactly-once: 1 completed write")

    def test_a_colluders_executed_set_does_not_count(self):
        plan = dataclasses.replace(
            self.PLAN, collusion=((3, "corrupt-vector"),)
        )
        replicas = {
            pid: self._facts(executed=self.WRITES - {(9, 0)})
            for pid in range(3)
        }
        replicas[3] = self._facts()
        (violation,) = self._judge(plan, replicas)
        assert violation.startswith("exactly-once")

    def test_a_rejoiner_behind_the_applied_frontier_fails(self):
        plan = dataclasses.replace(self.PLAN, kills=((2, 3.0, 6.0),))
        (violation,) = self._with(2, plan, applied=3, installed=2)
        assert violation.startswith("recovery: rejoined replica 2 applied 3")

    def test_a_rejoiner_with_nothing_past_its_snapshot_passes(self):
        # The documented `--recover 2:20:45` run: the workload drained
        # before the rejoin, so the snapshot is the whole frontier.
        plan = dataclasses.replace(self.PLAN, kills=((2, 3.0, 6.0),))
        assert self._with(2, plan, installed=4) == []

    def test_a_corrupted_replica_is_left_to_reconvergence(self):
        scribbled = dict(
            checkpoints=((2, "c2"), (4, "scribbled")), checkpoint_mismatches=1
        )
        assert len(self._with(1, **scribbled)) == 2
        plan = dataclasses.replace(
            self.PLAN, corruptions=((1, 2.0, "store"),)
        )
        assert self._with(1, plan, **scribbled) == []

    def test_every_check_stands_down_at_net(self):
        # What a status reply gives the net runner: no service state.
        plan = dataclasses.replace(self.PLAN, kills=((2, 3.0, 6.0),))
        replicas = {
            pid: ReplicaFacts(committed=4, digest="d" * 16, transfers=1)
            for pid in range(4)
        }
        assert self._judge(plan, replicas, "net", writes=None) == []


class TestNetChecks:
    """The checks only a real cluster can make, on hand-built facts: each
    fires on its own defect, and each stands down at sim and loopback."""

    #: Replica 3 is killed for good; the others finish. The client
    #: completed 5 sets (workload, nudge, sentinel) of 6 it issued.
    PLAN = FaultPlan(
        name="net", requests=4, duration=12.0, kills=((3, 3.0, None),)
    )

    @staticmethod
    def _cluster(**overrides) -> ClusterFacts:
        fields = dict(
            sets_issued=6,
            sets_completed=5,
            exit_codes={0: 0, 1: 0, 2: 0, 3: -9},
            sentinel_read=True,
        )
        fields.update(overrides)
        return ClusterFacts(**fields)

    def _observe(self, fidelity="net", plan=None, cluster=None, **replica_1):
        plan = plan or self.PLAN
        replicas = {
            pid: ReplicaFacts(committed=5, digest="d" * 16)
            for pid in range(3)
        }
        replicas[1] = ReplicaFacts(
            **{"committed": 5, "digest": "d" * 16, **replica_1}
        )
        return observe(
            plan,
            fidelity,
            completed=plan.requests,
            replicas=replicas,
            declarations=(),
            injected=lambda module, name: 0,
            extras={},
            cluster=cluster or self._cluster(),
        )

    def _judge(self, fidelity="net", plan=None, **overrides):
        plan = plan or self.PLAN
        observation = self._observe(fidelity, plan, **overrides)
        return judge_net(plan, observation, live_correct(plan))

    def test_healthy_facts_pass(self):
        assert self._judge() == []
        assert judge(self.PLAN, self._observe()) == ("pass", [])

    def test_a_commit_outside_completed_to_issued_fails(self):
        for committed in (4, 7):
            (violation,) = self._judge(committed=committed)
            assert violation.startswith(
                f"exactly-once: replica 1 committed {committed} commands"
            )
        assert self._judge(committed=6) == []

    def test_a_refused_suffix_fails_on_a_benign_plan_only(self):
        (violation,) = self._judge(suffix_rejections=1)
        assert violation.startswith("integrity: replica 1 refused 1")
        flipping = dataclasses.replace(self.PLAN, flips=((0, 1.0, 2),))
        assert not flipping.benign
        assert self._judge(plan=flipping, suffix_rejections=1) == []

    def test_a_nonzero_exit_fails_unless_the_plan_left_it_dead(self):
        codes = {0: 0, 1: 0, 2: 1, 3: -9}
        (violation,) = self._judge(cluster=self._cluster(exit_codes=codes))
        assert violation == "shutdown: replica 2 exited 1"

    def test_a_sentinel_that_does_not_read_back_fails(self):
        (violation,) = self._judge(
            cluster=self._cluster(sentinel_read=False)
        )
        assert violation.startswith("read-back: the sentinel")

    def test_every_check_stands_down_at_sim_and_loopback(self):
        every_defect = dict(
            cluster=self._cluster(
                exit_codes={0: 1, 1: 1, 2: 1, 3: 1}, sentinel_read=False
            ),
            committed=9,
            suffix_rejections=2,
        )
        kinds = {v.split(":")[0] for v in self._judge(**every_defect)}
        assert kinds == {"exactly-once", "integrity", "shutdown", "read-back"}
        for fidelity in ("sim", "loopback"):
            assert self._judge(fidelity, **every_defect) == []

    def test_the_net_record_names_the_checks_made(self):
        assert net_checks(self.PLAN) == NET_CHECKS
        flipping = dataclasses.replace(self.PLAN, flips=((0, 1.0, 2),))
        assert "suffix-rejections" not in net_checks(flipping)
        result = run_cross_fidelity((self.PLAN,), ("sim",)).results[0]
        result.outcomes["net"] = result.outcomes["sim"]
        record = result.to_record()["fidelities"]
        assert record["net"]["checks"] == list(NET_CHECKS)
        assert "checks" not in record["sim"]


class TestByzantineOverLoss:
    """A colluder over a lossy link with no reliable transport: F = 1 is
    spent on the colluder, so every slot needs all three correct
    replicas' messages, and the engines never retransmit one
    (docs/FAULTS.md, "A Byzantine replica over a lossy link")."""

    PLAN = FaultPlan(
        name="byzantine-lossy",
        seed=3,
        requests=40,
        collusion=((3, "corrupt-vector"),),
        loss=0.03,
        expect="vulnerable",
    )

    def test_the_combined_cell_stalls_at_both_deterministic_fidelities(self):
        for fidelity in ("sim", "loopback"):
            verdict, violations = judge(self.PLAN, run_plan(self.PLAN, fidelity))
            assert verdict == "expected-vulnerability", fidelity
            assert any(v.startswith("progress") for v in violations), fidelity

    def test_without_loss_the_colluder_is_tolerated(self):
        plan = dataclasses.replace(self.PLAN, loss=0.0)
        for fidelity in ("sim", "loopback"):
            assert judge(plan, run_plan(plan, fidelity)) == ("pass", [])


class TestReducer:
    """One facts -> observation reduction under every fidelity label.

    The plan arms all four zoo families plus flips, a rejoin and a
    colluder, so every pid-set rule is on the path: replicas 0, 1, 5, 6
    are correct throughout; 2 crashes and rejoins and 4 is a timing
    attacker (both faulty, both live at the end); 3 colludes (faulty and
    not live — the replica that must contribute nothing).
    """

    PLAN = FaultPlan(
        name="every-rule",
        requests=8,
        duration=12.0,
        n_replicas=7,
        kills=((2, 3.0, 6.0),),
        collusion=((3, "corrupt-vector"),),
        flips=((1, 1.0, 2),),
        suppressions=((1, 1.0, 2.0, 4.0),),
        corruptions=((0, 4.0, "store"),),
        timing=((4, 2.0, 6.0, 0.5),),
        storage_flips=((1, 2.0, "log"),),
    )
    SIG = "signature module: invalid signature"

    @staticmethod
    def _facts(colluder_noise: int):
        def replica(digest="d", transfers=0, suffix=0, **counts):
            table = {
                (MODULE_SERVICE, "checkpoint_mismatches"): counts.get("cm", 0),
                (MODULE_SERVICE, "state_heals"): counts.get("heals", 0),
                (MODULE_SERVICE, "state_responses_rejected"): counts.get("srr", 0),
                (MODULE_SIGNATURE, "messages_rejected"): counts.get("sig", 0),
                (MODULE_MUTENESS, "wrongful_suspicions"): counts.get("ws", 0),
            }
            return ReplicaFacts(
                committed=8,
                digest=digest,
                transfers=transfers,
                suffix_rejections=suffix,
                counter=lambda module, name: table.get((module, name), 0),
            )

        n = colluder_noise
        return {
            0: replica(suffix=1, cm=1, heals=1, sig=2, ws=1),
            1: replica(srr=1, sig=1),
            2: replica(transfers=1, suffix=2, cm=2, sig=4, ws=8),
            3: replica("x", n, n, cm=n, heals=n, srr=n, sig=n, ws=n),
            4: replica(cm=16, ws=16, sig=16),
            5: replica(),
            6: replica(),
        }

    @classmethod
    def _observe(cls, fidelity, colluder_noise=7):
        declarations = [(0, 1, cls.SIG), (2, 3, "certification module: x")]
        if colluder_noise:
            declarations.append((3, 1, cls.SIG))
        return observe(
            cls.PLAN,
            fidelity,
            completed=8,
            replicas=cls._facts(colluder_noise),
            declarations=declarations,
            injected=lambda module, name: {
                (MODULE_FAULTS, "arb_faults_injected"): 2,
                (MODULE_ZOO, "suppressed_deliveries"): 3,
                (MODULE_ZOO, "timing_delays"): 4,
                (MODULE_ZOO, "corruptions_injected"): 1,
                (MODULE_ZOO, "storage_flips_injected"): 5,
            }[module, name],
            extras={"from": fidelity},
        )

    def test_plan_arms_every_rule(self):
        self.PLAN.validate()
        assert live_correct(self.PLAN) == {0, 1, 2, 4, 5, 6}
        assert self.PLAN.faulty_pids == {2, 3, 4}

    def test_identical_under_every_fidelity_label(self):
        sim, loopback, net = (self._observe(f) for f in FIDELITIES)
        for other in (loopback, net):
            assert other.fidelity != sim.fidelity
            assert dataclasses.replace(
                other, fidelity=sim.fidelity, extras=sim.extras
            ) == sim

    def test_pid_set_rules(self):
        observation = self._observe("sim")
        # Final state: the live set (the colluder's divergent digest is
        # not the judge's business); transfers: the rejoiner.
        assert set(observation.committed) == {0, 1, 2, 4, 5, 6}
        assert set(observation.digests.values()) == {"d"}
        assert observation.transfers == {2: 1}
        # Declarations, signature rejections, wrongful suspicions come
        # from correct observers only — not the crashed-and-back 2, not
        # the timing attacker 4.
        assert observation.declared == ((0, 1, self.SIG),)
        assert observation.signature_rejections == 2 + 1
        assert observation.zoo["wrongful_suspicions"] == 1
        # Detection counters come from the live set.
        assert observation.zoo["checkpoint_mismatches"] == 1 + 2 + 16
        assert observation.zoo["state_heals"] == 1
        assert observation.zoo["storage_rejections"] == (1 + 2) + 1
        # Injection counts are the run's, verbatim.
        assert observation.flips_injected == 2
        assert observation.zoo["suppressed"] == 3
        assert observation.zoo["timing_delays"] == 4
        assert observation.zoo["corruptions_injected"] == 1
        assert observation.zoo["storage_flips_injected"] == 5

    def test_a_colluding_replica_contributes_nothing(self):
        for fidelity in FIDELITIES:
            assert self._observe(fidelity, colluder_noise=7) == self._observe(
                fidelity, colluder_noise=0
            )

    def test_settled_requires_the_rejoiners_transfer(self):
        facts = self._facts(0)
        assert settled(self.PLAN, facts, completed=8)
        assert not settled(self.PLAN, facts, completed=7)
        facts[2].transfers = 0
        assert not settled(self.PLAN, facts, completed=8)
        facts[2].transfers = 1
        facts[1].digest = "e"
        assert not settled(self.PLAN, facts, completed=8)
        del facts[1]
        assert not settled(self.PLAN, facts, completed=8)


class TestLoopbackLinkPolicy:
    def test_a_nodes_own_loopback_crosses_no_link(self):
        # Replica 1 is mute from t=0: the injector — which *is* every
        # loopback transport's and client's link policy — swallows
        # everything touching it, except what it sends itself.
        run = _LoopbackRun(
            FaultPlan(name="mute", requests=1, duration=4.0, mutes=((1, 0.0),))
        )
        run.cluster.close()
        link = run.cluster.transports[0]._link
        assert link == run.injector.plan_deliveries == run.client._link
        assert link(0.0, 1, 1, "m") is None
        assert link(0.0, 0, 1, "m") == []
        assert link(0.0, 1, 0, "m") == []
        assert run.injector.drops["mute"] == 2

    def test_a_handler_that_raises_fails_the_plan(self):
        # The transport counts and drops a message whose handler raised;
        # the judge turns the count at a correct replica into a failure.
        plan = FaultPlan(name="loud", seed=2, requests=6, duration=6.0)
        run = _LoopbackRun(plan)
        process = run.cluster.nodes[1].process
        deliver = process.deliver
        raised = []

        def once(src, payload):
            if not raised:
                raised.append(src)
                raise RuntimeError("a handler bug")
            deliver(src, payload)

        process.deliver = once
        verdict, violations = judge(plan, run.execute())
        assert raised
        assert verdict == "fail"
        assert violations == ["handler: replica 1 raised in 1 message handler(s)"]


def test_a_loopback_report_is_identical_under_two_hash_seeds():
    # The twin's determinism rests on asyncio's ready-queue order and on
    # nothing that iterates a hash-ordered set.
    script = (
        "from repro.faults.presets import FAULT_PRESETS\n"
        "from repro.faults.report import run_cross_fidelity\n"
        "plans = [p for p in FAULT_PRESETS['smoke'] if p.name == 'kill-rejoin']\n"
        "print(run_cross_fidelity(plans, ('loopback',)).dumps())\n"
    )
    src = str(Path(repro.__file__).parents[1])
    reports = [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True,
            check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert reports[0] and reports[0] == reports[1]


class TestCrossFidelityReport:
    def test_smoke_matrix_agrees_and_is_byte_identical(self):
        plans = FAULT_PRESETS["smoke"]
        first = run_cross_fidelity(plans, ("sim", "loopback"))
        assert first.ok
        assert first.all_agree
        for result in first.results:
            assert result.verdicts == {"sim": "pass", "loopback": "pass"}
        second = run_cross_fidelity(plans, ("sim", "loopback"))
        assert first.dumps() == second.dumps()

    def test_report_record_shape(self):
        plan = FaultPlan(name="tiny", seed=2, requests=6, duration=6.0)
        report = run_cross_fidelity((plan,), ("sim",))
        record = json.loads(report.dumps())
        assert record["schema"] == "repro.faults/v1"
        assert record["kind"] == "cross-fidelity-report"
        (entry,) = record["plans"]
        assert entry["plan_id"] == plan.plan_id
        assert entry["agree"] is True
        assert "observation" in entry["fidelities"]["sim"]

    def test_net_observation_detail_is_excluded_from_the_record(self):
        # Fidelity 3 is verdict-stable only: its raw numbers vary run to
        # run, so the canonical record must not contain them.
        plan = FaultPlan(name="tiny", seed=2, requests=6, duration=6.0)
        result_plan = run_cross_fidelity((plan,), ("sim",)).results[0]
        verdict, violations, observation = result_plan.outcomes["sim"]
        result_plan.outcomes["net"] = (verdict, violations, observation)
        record = result_plan.to_record()
        assert "observation" not in record["fidelities"]["net"]
        assert record["fidelities"]["net"]["verdict"] == verdict


class TestRehunt:
    """The flake-hunting mode: disagreeing plans re-run k times."""

    @staticmethod
    def _fake_run_plan(flaky_after: int):
        """A run_plan double: sim is always healthy; loopback reports a
        wrong digest for the first ``flaky_after`` calls, then heals —
        the archetypal flaky fidelity."""
        calls = {"loopback": 0}

        def fake(plan, fidelity, *, workdir=None, timeout=180.0):
            observation = _healthy(plan, fidelity)
            if fidelity == "loopback":
                calls["loopback"] += 1
                if calls["loopback"] <= flaky_after:
                    observation.digests = dict(observation.digests)
                    observation.digests[0] = "deadbeef" * 2
            return observation

        return fake

    def test_disagreeing_plan_gets_a_verdict_distribution(self, monkeypatch):
        import repro.faults.report as report_module

        monkeypatch.setattr(
            report_module, "run_plan", self._fake_run_plan(flaky_after=1)
        )
        plan = FaultPlan(name="flaky", seed=3, requests=6, duration=6.0)
        report = report_module.run_cross_fidelity(
            (plan,), ("sim", "loopback"), rehunt=3
        )
        (result,) = report.results
        assert not result.agree
        assert result.rehunt is not None
        # Original run + 3 re-runs per fidelity.
        assert result.rehunt["sim"] == {"pass": 4}
        assert result.rehunt["loopback"] == {"fail": 1, "pass": 3}
        record = result.to_record()
        assert record["rehunt"]["loopback"] == {"fail": 1, "pass": 3}

    def test_every_run_is_announced_and_gets_its_own_workdir(
        self, monkeypatch, tmp_path
    ):
        import repro.faults.report as report_module

        fake = self._fake_run_plan(flaky_after=1)
        workdirs = []

        def recording(plan, fidelity, *, workdir=None, timeout=180.0):
            workdirs.append(workdir.name)
            return fake(plan, fidelity)

        monkeypatch.setattr(report_module, "run_plan", recording)
        plan = FaultPlan(name="flaky", seed=3, requests=6, duration=6.0)
        lines = []
        report_module.run_cross_fidelity(
            (plan,), ("sim", "loopback"), workdir=tmp_path, rehunt=1,
            progress=lines.append,
        )
        pid = plan.plan_id
        assert lines == [
            f"flaky [{pid}] @ sim",
            f"flaky [{pid}] @ loopback",
            f"flaky [{pid}] @ sim rehunt 1/1",
            f"flaky [{pid}] @ loopback rehunt 1/1",
        ]
        assert workdirs == [
            f"{pid}-sim",
            f"{pid}-loopback",
            f"{pid}-sim-rehunt0",
            f"{pid}-loopback-rehunt0",
        ]

    def test_agreeing_plans_are_never_rerun_and_stay_byte_identical(self):
        plan = FaultPlan(name="tiny", seed=2, requests=6, duration=6.0)
        plain = run_cross_fidelity((plan,), ("sim", "loopback"))
        hunted = run_cross_fidelity((plan,), ("sim", "loopback"), rehunt=5)
        assert hunted.results[0].rehunt is None
        assert "rehunt" not in hunted.results[0].to_record()
        assert plain.dumps() == hunted.dumps()

    def test_negative_rehunt_is_a_configuration_error(self):
        import pytest

        from repro.errors import ConfigurationError

        plan = FaultPlan(name="tiny", seed=2, requests=6, duration=6.0)
        with pytest.raises(ConfigurationError):
            run_cross_fidelity((plan,), ("sim",), rehunt=-1)
