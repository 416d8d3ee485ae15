"""Unit tests: system builders and the public package surface."""

from __future__ import annotations

import pytest

import repro
from repro.core.modules import ModuleConfig
from repro.core.transformer import TransformationBlueprint
from repro.errors import ConfigurationError
from repro.systems import build_crash_system, build_transformed_system


def proposals(n):
    return [f"v{i}" for i in range(n)]


class TestBuildCrashSystem:
    def test_basic_construction(self):
        system = build_crash_system(proposals(5))
        assert system.n == 5
        assert system.correct_pids == frozenset(range(5))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            build_crash_system(proposals(3), protocol="paxos")

    def test_crash_and_byzantine_overlap_rejected(self):
        from repro.byzantine.adversary import crash_attack

        with pytest.raises(ConfigurationError):
            build_crash_system(
                proposals(5), crash_at={1: 0.0}, byzantine=crash_attack(1, "mute")
            )

    def test_correct_pids_excludes_faulty(self):
        from repro.byzantine.adversary import crash_attack

        system = build_crash_system(
            proposals(5), crash_at={0: 1.0}, byzantine=crash_attack(2, "mute")
        )
        assert system.correct_pids == frozenset({1, 3, 4})

    def test_deterministic_replay(self):
        def run(seed):
            system = build_crash_system(proposals(5), crash_at={1: 2.0}, seed=seed)
            system.run()
            return (
                system.decisions(),
                system.world.network.messages_sent,
                system.world.scheduler.now,
            )

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestBuildTransformedSystem:
    def test_default_f_is_bound(self):
        system = build_transformed_system(proposals(7))
        assert system.params.f == 2

    def test_explicit_f(self):
        system = build_transformed_system(proposals(7), f=1)
        assert system.params.f == 1
        assert system.params.quorum == 6

    def test_too_many_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            build_transformed_system(proposals(4), crash_at={0: 1.0, 1: 1.0})

    def test_unknown_muteness_flavor_rejected(self):
        with pytest.raises(ConfigurationError):
            build_transformed_system(proposals(4), muteness="psychic")

    def test_config_threaded_to_processes(self):
        config = ModuleConfig.full().without("ledger")
        system = build_transformed_system(proposals(4), config=config)
        assert all(p.monitor_bank.ledger is None for p in system.processes)

    def test_deterministic_replay(self):
        def run(seed):
            system = build_transformed_system(proposals(4), seed=seed)
            system.run()
            return system.decisions(), system.world.scheduler.now

        assert run(7) == run(7)

    def test_run_result_recorded(self):
        system = build_transformed_system(proposals(4))
        assert system.result is None
        result = system.run()
        assert system.result is result

    def test_all_correct_decided_helper(self):
        system = build_transformed_system(proposals(4))
        assert not system.all_correct_decided()
        system.run()
        assert system.all_correct_decided()


class TestTransformationBlueprint:
    def test_blueprint_builds_working_processes(self):
        """The generic blueprint assembles the same system the convenience
        builder does (the methodology API is not a facade)."""
        from repro.consensus.transformed import TransformedConsensusProcess
        from repro.core.specs import SystemParameters
        from repro.crypto.keys import KeyAuthority
        from repro.crypto.signatures import SignatureScheme
        from repro.detectors.oracles import OracleDetector
        from repro.sim.world import World

        n = 4
        params = SystemParameters.for_n(n)
        keys = KeyAuthority(n, seed=0)
        blueprint = TransformationBlueprint(
            params=params,
            scheme=SignatureScheme(keys),
            key_authority=keys,
            muteness_factory=lambda pid: OracleDetector(status=lambda _p: False),
            protocol_factory=lambda pid, prop, auth, det, cfg: (
                TransformedConsensusProcess(
                    proposal=prop,
                    params=params,
                    authority=auth,
                    detector=det,
                    config=cfg,
                )
            ),
        )
        processes = blueprint.build_all(proposals(n))
        world = World(processes, seed=0)
        world.run(max_time=2_000)
        assert all(p.decided for p in processes)
        decided = {p.decision for p in processes}
        assert len(decided) == 1

    def test_blueprint_default_config_is_full(self):
        from repro.core.specs import SystemParameters
        from repro.crypto.keys import KeyAuthority
        from repro.crypto.signatures import SignatureScheme

        keys = KeyAuthority(2, seed=0)
        blueprint = TransformationBlueprint(
            params=SystemParameters.for_n(4),
            scheme=SignatureScheme(keys),
            key_authority=keys,
            muteness_factory=lambda pid: None,  # type: ignore[arg-type]
            protocol_factory=lambda *a: None,  # type: ignore[arg-type,return-value]
        )
        assert blueprint.config == ModuleConfig.full()


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_from_docstring(self):
        system = repro.build_transformed_system(
            ["a", "b", "c", "d"],
            byzantine=repro.transformed_attack(3, "corrupt-vector"),
            seed=1,
        )
        system.run()
        assert system.decisions()
        assert 3 in system.processes[0].faulty


class TestHeartbeatCrashSystems:
    def test_heartbeat_fd_end_to_end(self):
        """A fully oracle-free crash-model run: adaptive heartbeat ◇S."""
        from repro.analysis.properties import check_crash_consensus
        from repro.detectors.heartbeat import HeartbeatDetector

        system = build_crash_system(
            proposals(5), crash_at={0: 0.5}, fd="heartbeat", seed=4
        )
        assert all(
            isinstance(p.detector, HeartbeatDetector) for p in system.processes
        )
        system.run(max_time=3_000)
        report = check_crash_consensus(system)
        assert report.all_hold, report.violations

    def test_heartbeat_fd_chandra_toueg(self):
        from repro.analysis.properties import check_crash_consensus

        system = build_crash_system(
            proposals(5),
            crash_at={0: 0.5},
            protocol="chandra-toueg",
            fd="heartbeat",
            seed=4,
        )
        system.run(max_time=3_000)
        assert check_crash_consensus(system).all_hold

    def test_unknown_fd_rejected(self):
        with pytest.raises(ConfigurationError):
            build_crash_system(proposals(3), fd="tarot")
