"""Tests: the BFT replicated-service runtime (repro.service).

Covers the tentpole end to end — clients, batching, pipelining,
checkpoint certificates, log compaction and state transfer — plus the
acceptance runs from the issue: >= 200 commands over >= 3 certified
checkpoints under a Byzantine replica on a lossy wire, and a recovery
scenario whose restarted replica completes a verified state transfer
and commits new slots.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.certificates import Certificate, SignedMessage
from repro.errors import ConfigurationError
from repro.observability.registry import MODULE_SERVICE
from repro.replication.kvstore import Command, KeyValueStore
from repro.service import (
    CheckpointCertificate,
    ServiceConfig,
    ServiceScenario,
    build_service_system,
    certificate_valid,
    evaluate_service_outcome,
    run_service_scenario,
    service_digest,
    service_preset,
)
from repro.service.messages import Checkpoint


def run_system(config, **kwargs):
    system = build_service_system(config, **kwargs)
    system.run(max_time=2_500.0)
    return system


class TestServiceConfig:
    def test_validate_accepts_defaults(self):
        ServiceConfig().validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("window", 0),
            ("checkpoint_interval", 0),
            ("checkpoint_interval", -2),
            ("batch_size", 0),
            ("batch_delay", 0.0),
            ("mode", "bursty"),
            ("rate", 0.0),
            ("requests_per_client", 0),
            ("request_timeout", 0.0),
            ("n_clients", 0),
        ],
    )
    def test_validate_rejects(self, field, value):
        from dataclasses import replace

        with pytest.raises(ConfigurationError):
            replace(ServiceConfig(), **{field: value}).validate()


class TestServiceDigest:
    def test_digest_covers_store_and_executed(self):
        store = KeyValueStore().apply_all([Command("set", "x", 1)])
        same = KeyValueStore().apply_all([Command("set", "x", 1)])
        assert service_digest(store, {(5, 0)}) == service_digest(same, {(5, 0)})
        assert service_digest(store, {(5, 0)}) != service_digest(same, {(5, 1)})
        store.apply(Command("set", "x", 2))
        assert service_digest(store, {(5, 0)}) != service_digest(same, {(5, 0)})


class TestCheckpointCertificates:
    def make_authorities(self, config):
        system = build_service_system(config)
        return [replica._ckpt_authority for replica in system.replicas]

    def test_f_plus_one_matching_votes_verify(self):
        config = ServiceConfig(seed=5)
        authorities = self.make_authorities(config)
        f = config.params().f
        votes = [
            authority.make(Checkpoint(sender=pid, count=4, digest="d"))
            for pid, authority in enumerate(authorities[: f + 1])
        ]
        certificate = CheckpointCertificate(
            count=4, digest="d", certificate=Certificate(tuple(votes))
        )
        assert certificate_valid(certificate, authorities[0], f)
        assert certificate.signers == frozenset(range(f + 1))

    def test_too_few_or_mismatched_votes_rejected(self):
        config = ServiceConfig(seed=5)
        authorities = self.make_authorities(config)
        f = config.params().f
        short = CheckpointCertificate(
            count=4,
            digest="d",
            certificate=Certificate(
                (authorities[0].make(Checkpoint(sender=0, count=4, digest="d")),)
            ),
        )
        assert not certificate_valid(short, authorities[0], f)
        mixed = CheckpointCertificate(
            count=4,
            digest="d",
            certificate=Certificate(
                tuple(
                    authorities[pid].make(
                        Checkpoint(sender=pid, count=4, digest=digest)
                    )
                    for pid, digest in ((0, "d"), (1, "other"))
                )
            ),
        )
        assert not certificate_valid(mixed, authorities[0], f)

    def test_forged_or_malformed_votes_rejected_without_crash(self):
        from repro.core.certificates import EMPTY_CERTIFICATE

        config = ServiceConfig(seed=5)
        authorities = self.make_authorities(config)
        f = config.params().f
        votes = list(
            authorities[pid].make(Checkpoint(sender=pid, count=4, digest="d"))
            for pid in range(f + 1)
        )
        # A vote with a forged signature poisons the whole certificate
        # (certificates are assembled from individually verified votes, so
        # a valid one never contains an invalid entry).
        forged = CheckpointCertificate(
            count=4,
            digest="d",
            certificate=Certificate(
                tuple(votes)
                + (
                    SignedMessage(
                        body=Checkpoint(sender=f + 1, count=4, digest="d"),
                        cert=EMPTY_CERTIFICATE,
                        signature="sig:forged",
                    ),
                )
            ),
        )
        assert not certificate_valid(forged, authorities[0], f)

    def test_malformed_vote_rejected_without_crash(self):
        # A Byzantine peer can ship a structurally broken vote straight
        # to a replica; it must be dropped, never crash the process.
        system = build_service_system(ServiceConfig(seed=5))
        system.world.start()
        replica = system.replicas[0]
        junk = SignedMessage(
            body=Checkpoint(sender=3, count=2, digest="d"),
            cert=None,  # type: ignore[arg-type]
            signature="sig:junk",
        )
        replica.on_message(3, junk)
        assert replica.stable is None
        rejected = system.world.metrics.counter(
            MODULE_SERVICE, "checkpoint_votes_rejected", pid=0
        )
        assert rejected == 1


class TestServiceBaseline:
    def test_all_requests_complete_and_stores_converge(self):
        config = ServiceConfig(
            n_clients=2, requests_per_client=12, seed=11, batch_size=4
        )
        system = run_system(config)
        assert system.all_clients_done()
        assert system.committed_commands() == 24
        digests = {
            service_digest(
                system.replicas[pid].slotlog.store, system.replicas[pid].slotlog.executed
            )
            for pid in system.correct_pids
        }
        assert len(digests) == 1

    def test_checkpoints_agree_and_certify(self):
        config = ServiceConfig(
            n_clients=2, requests_per_client=16, seed=12, checkpoint_interval=2
        )
        system = run_system(config)
        assert system.checkpoints_agree()
        assert system.certified_checkpoints() >= 3
        for pid in system.correct_pids:
            replica = system.replicas[pid]
            assert replica.stable is not None
            assert certificate_valid(
                replica.stable, replica._ckpt_authority, config.params().f
            )

    def test_log_compaction_truncates_below_stable(self):
        config = ServiceConfig(
            n_clients=2, requests_per_client=16, seed=13, checkpoint_interval=2
        )
        system = run_system(config)
        for pid in system.correct_pids:
            replica = system.replicas[pid]
            assert replica.stable is not None
            assert replica.base_slot == replica.stable.count
            assert all(slot >= replica.base_slot for slot, _, _ in replica.slotlog.log)
            assert all(s >= replica.base_slot for s in replica.engines)

    def test_pipelining_window_respected(self):
        config = ServiceConfig(
            n_clients=3,
            requests_per_client=10,
            seed=14,
            batch_size=2,
            window=2,
            rate=5.0,
        )
        system = build_service_system(config)
        max_open = 0
        replica = system.replicas[0]
        original = replica._open

        def spying(slot, proposal):
            nonlocal max_open
            original(slot, proposal)
            max_open = max(max_open, replica.slotlog.open_slots())

        replica._open = spying
        system.run(max_time=2_500.0)
        # The window bounds slots *opened by batching*; envelope-driven
        # engine creation (peers already proposing) may add a few more.
        assert max_open <= config.window + config.n_replicas
        assert system.all_clients_done()

    def test_batches_fill_under_load(self):
        config = ServiceConfig(
            n_clients=3, requests_per_client=12, seed=15, batch_size=4, rate=10.0
        )
        system = run_system(config)
        occupancy = [
            total / count
            for (module, name, _pid, _round), (count, total, _low, _high)
            in system.world.metrics.iter_histograms()
            if module == MODULE_SERVICE and name == "batch_occupancy"
        ]
        assert occupancy and max(occupancy) > 1.0

    def test_closed_loop_clients_complete(self):
        config = ServiceConfig(
            mode="closed", think=0.5, n_clients=3, requests_per_client=8, seed=16
        )
        system = run_system(config)
        assert system.all_clients_done()
        assert system.committed_commands() == 24

    def test_client_latencies_recorded(self):
        config = ServiceConfig(n_clients=2, requests_per_client=10, seed=17)
        system = run_system(config)
        latencies = system.client_latencies()
        assert len(latencies) == 20
        assert all(latency > 0 for latency in latencies)

    def test_deterministic_replay(self):
        def run(seed):
            scenario = ServiceScenario(
                seed=seed, requests_per_client=10, min_commands=20
            )
            return run_service_scenario(scenario)

        assert run(21) == run(21)


class TestServiceAcceptance:
    """The issue's acceptance runs (sized-down only in wall-clock)."""

    def test_200_commands_3_checkpoints_byzantine_lossy(self):
        scenario = ServiceScenario(
            name="acceptance",
            seed=7,
            n_clients=3,
            requests_per_client=70,
            rate=3.0,
            batch_size=8,
            window=3,
            checkpoint_interval=3,
            attacks=((3, "corrupt-vector"),),
            loss=0.05,
            transport="reliable",
            min_commands=200,
            min_checkpoints=3,
        )
        record = run_service_scenario(scenario)
        assert record["verdict"] == "pass", record["violations"]
        assert record["service"]["committed_commands"] >= 200
        assert record["service"]["certified_checkpoints"] >= 3

    def test_recovery_completes_state_transfer_and_rejoins(self):
        scenario = ServiceScenario(
            name="recovery",
            seed=4,
            n_clients=2,
            rate=0.4,
            requests_per_client=30,
            checkpoint_interval=2,
            recoveries=((2, 25.0, 60.0),),
            min_commands=60,
            min_checkpoints=3,
        )
        system = scenario.build()
        system.run(max_time=scenario.max_time)
        verdict, violations = evaluate_service_outcome(scenario, system)
        assert verdict == "pass", violations
        replica = system.replicas[2]
        assert replica.downs == 1 and replica.restarts == 1
        assert replica.state_transfers_completed
        _when, installed, _frontier = replica.state_transfers_completed[-1]
        assert replica.slotlog.next_apply > installed  # committed new slots after
        # The certificate protecting the installed snapshot verifies.
        assert replica.stable is not None
        assert certificate_valid(
            replica.stable,
            replica._ckpt_authority,
            scenario.service_config().params().f,
        )
        # The recovery story is visible in the trace.
        kinds = {event.kind for event in system.world.trace}
        for kind in (
            "service_down",
            "service_restart",
            "state_transfer_start",
            "snapshot_installed",
            "state_transfer_complete",
        ):
            assert kind in kinds


class TestServiceScenarioSurface:
    def test_config_round_trip(self):
        scenario = service_preset("smoke")[2]
        again = ServiceScenario.from_config(scenario.to_config())
        assert again == scenario
        assert again.scenario_id == scenario.scenario_id

    def test_validate_rejects_bad_plans(self):
        with pytest.raises(ConfigurationError):
            ServiceScenario(attacks=((9, "corrupt-vector"),)).validate()
        with pytest.raises(ConfigurationError):
            ServiceScenario(attacks=((1, "no-such-attack"),)).validate()
        with pytest.raises(ConfigurationError):
            ServiceScenario(recoveries=((1, 30.0, 10.0),)).validate()
        with pytest.raises(ConfigurationError):
            ServiceScenario(
                attacks=((1, "mute"),), recoveries=((1, 5.0, 10.0),)
            ).validate()
        with pytest.raises(ConfigurationError):
            ServiceScenario(loss=0.1).validate()  # lossy without transport
        with pytest.raises(ConfigurationError):
            ServiceScenario(
                attacks=((1, "mute"),), recoveries=((2, 5.0, 10.0),)
            ).validate()  # two faulty replicas exceed F=1 at n=4

    def test_smoke_preset_all_pass(self):
        for scenario in service_preset("smoke"):
            record = run_service_scenario(scenario)
            assert record["verdict"] == "pass", (
                scenario.name,
                record["violations"],
            )


class TestServiceCli:
    def test_run_exits_zero(self, capsys):
        assert (
            main(
                ["service", "run", "--requests", "8", "--seed", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "commands committed" in out

    def test_invalid_window_exits_two(self, capsys):
        assert main(["service", "run", "--window", "0"]) == 2
        assert "window" in capsys.readouterr().err

    def test_invalid_checkpoint_interval_exits_two(self, capsys):
        assert main(["service", "run", "--checkpoint-interval", "0"]) == 2
        assert "checkpoint interval" in capsys.readouterr().err

    def test_malformed_recover_exits_two(self, capsys):
        assert main(["service", "run", "--recover", "1:zz:5"]) == 2
        assert "--recover" in capsys.readouterr().err

    def test_unknown_preset_exits_two(self, capsys):
        assert main(["campaign", "service", "--preset", "zzz"]) == 2
        assert "preset" in capsys.readouterr().err

    def test_json_export(self, tmp_path, capsys):
        target = tmp_path / "service.json"
        code = main(
            [
                "service", "run", "--requests", "6", "--seed", "2",
                "--json", str(target),
            ]
        )
        assert code == 0
        import json

        record = json.loads(target.read_text())
        assert record["verdict"] == "pass"
        assert record["service"]["committed_commands"] == 12
