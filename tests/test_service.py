"""Tests: the BFT replicated-service runtime (repro.service).

Covers the tentpole end to end — clients, batching, pipelining,
checkpoint certificates, log compaction and state transfer — plus the
acceptance runs from the issue: >= 200 commands over >= 3 certified
checkpoints under a Byzantine replica on a lossy wire, and a recovery
scenario whose restarted replica completes a verified state transfer
and commits new slots.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.certificates import Certificate, SignedMessage
from repro.errors import ConfigurationError
from repro.faults.oracle import judge
from repro.faults.plan import FaultPlan
from repro.faults.sim_runner import build_service_run, observe_system
from repro.observability.registry import MODULE_SERVICE
from repro.replication.kvstore import Command, KeyValueStore
from repro.service.checkpoint import (
    CheckpointCertificate,
    certificate_valid,
    service_digest,
)
from repro.service.config import ServiceConfig
from repro.service.messages import Checkpoint
from repro.sim.service import build_service_system


def run_system(config, **kwargs):
    system = build_service_system(config, **kwargs)
    system.run(max_time=2_500.0)
    return system


def judged_run(plan, config, **kwargs):
    """Build and run ``repro service run``'s world; judge it by the
    fault engine's oracles."""
    system = build_service_run(plan, config, **kwargs)
    system.run(max_time=plan.duration)
    return system, judge(plan, observe_system(plan, system))


def service_run(tmp_path, argv, name="record.json"):
    """``repro service run ARGV --json``: the exit code and the record."""
    target = tmp_path / name
    code = main(["service", "run", *argv, "--json", str(target)])
    return code, json.loads(target.read_text())


#: The four deployments the retired service preset ran, as argvs.
SMOKE_ARGVS = {
    "open-loop-baseline": "--seed 1 --clients 2 --requests 20",
    "closed-loop": "--seed 2 --mode closed --think 0.5 --clients 3 "
    "--requests 12 --batch-size 2",
    "byzantine-lossy": "--seed 3 --clients 2 --requests 20 "
    "--attack 3:corrupt-vector --loss 0.03 --transport reliable",
    "recovery": "--seed 4 --clients 2 --rate 0.4 --requests 30 "
    "--recover 2:25:60",
}


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

    def test_deterministic_replay(self, tmp_path, capsys):
        argv = ["--seed", "21", "--requests", "10"]
        first = service_run(tmp_path, argv, "a.json")
        assert first == service_run(tmp_path, argv, "b.json")
        assert first[0] == 0
        capsys.readouterr()


class TestServiceAcceptance:
    """The issue's acceptance runs (sized-down only in wall-clock)."""

    def test_200_commands_3_checkpoints_byzantine_lossy(self):
        plan = FaultPlan(
            name="acceptance",
            seed=7,
            requests=210,
            duration=2_500.0,
            collusion=((3, "corrupt-vector"),),
            loss=0.05,
        )
        config = ServiceConfig(
            n_clients=3,
            requests_per_client=70,
            rate=3.0,
            batch_size=8,
            window=3,
            checkpoint_interval=3,
            seed=7,
        )
        system, (verdict, violations) = judged_run(
            plan, config, transport="reliable"
        )
        assert verdict == "pass", violations
        assert system.committed_commands() >= 200
        assert system.certified_checkpoints() >= 3

    def test_recovery_completes_state_transfer_and_rejoins(self):
        plan = FaultPlan(
            name="recovery",
            seed=4,
            requests=60,
            duration=2_500.0,
            kills=((2, 25.0, 60.0),),
        )
        config = ServiceConfig(
            n_clients=2,
            rate=0.4,
            requests_per_client=30,
            checkpoint_interval=2,
            seed=4,
        )
        system, (verdict, violations) = judged_run(plan, config)
        assert verdict == "pass", violations
        assert system.committed_commands() >= 60
        assert system.certified_checkpoints() >= 3
        replica = system.replicas[2]
        assert replica.downs == 1 and replica.restarts == 1
        assert replica.state_transfers_completed
        _when, installed, _frontier = replica.state_transfers_completed[-1]
        assert replica.slotlog.next_apply > installed  # committed new slots after
        # The certificate protecting the installed snapshot verifies.
        assert replica.stable is not None
        assert certificate_valid(
            replica.stable, replica._ckpt_authority, config.params().f
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
    """`repro service run` describes its faults as a fault plan."""

    def test_config_round_trip(self, tmp_path, capsys):
        code, record = service_run(
            tmp_path, SMOKE_ARGVS["byzantine-lossy"].split()
        )
        assert code == 0
        plan = FaultPlan.from_config(record["config"])
        assert plan.collusion == ((3, "corrupt-vector"),)
        assert (plan.requests, plan.loss, plan.seed) == (40, 0.03, 3)
        assert FaultPlan.from_config(plan.to_config()) == plan
        assert plan.plan_id == record["id"]
        capsys.readouterr()

    def test_validate_rejects_bad_plans(self, capsys):
        for argv in (
            "--attack 9:corrupt-vector",
            "--attack 1:no-such-attack",
            "--recover 1:30:10",
            "--attack 1:mute --recover 1:5:10",
            "--loss 0.1",  # lossy without a reliable transport
            "--attack 1:mute --recover 2:5:10",  # two faulty exceed F=1
        ):
            assert main(["service", "run", *argv.split()]) == 2, argv
            assert capsys.readouterr().err.startswith("error:"), argv

    def test_smoke_preset_all_pass(self, capsys):
        for name, argv in SMOKE_ARGVS.items():
            assert main(["service", "run", *argv.split()]) == 0, name
            assert "violation" not in capsys.readouterr().out, name


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
        assert main(["campaign", "faults", "--preset", "zzz"]) == 2
        assert "preset" in capsys.readouterr().err

    def test_json_export(self, tmp_path, capsys):
        code, record = service_run(
            tmp_path, ["--requests", "6", "--seed", "2"], "service.json"
        )
        assert code == 0
        assert record["verdict"] == "pass"
        assert record["service"]["committed_commands"] == 12

    def test_documented_recovery_run_passes(self, tmp_path, capsys):
        """docs/SERVICE.md's recovery run. The workload drains before
        replica 2 rejoins, so there is nothing past its snapshot to
        commit; it still ends on the live set's digest."""
        argv = ["--clients", "2", "--requests", "8", "--seed", "7",
                "--recover", "2:20:45"]
        assert main(["service", "run", *argv]) == 0
        assert "recovery:" not in capsys.readouterr().out
        plan = FaultPlan(
            name="service-run", seed=7, requests=16, duration=2_500.0,
            kills=((2, 20.0, 45.0),),
        )
        config = ServiceConfig(n_clients=2, requests_per_client=8, seed=7)
        system, (verdict, violations) = judged_run(plan, config)
        assert verdict == "pass", violations
        observation = observe_system(plan, system)
        assert observation.transfers[2] == 1
        assert len(set(observation.digests.values())) == 1
        assert observation.digests[2] == observation.digests[0]
