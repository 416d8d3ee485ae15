"""Tests: real OS-process cluster orchestration (repro.net.cluster).

The heavyweight test here is a scaled-down `make net-smoke`: the
`net-smoke` fault plan on four replica subprocesses over real TCP, one
SIGKILLed and restarted mid-workload, judged by the fault engine with
convergence and exactly-once asserted from the observation. The rest
covers genesis generation, the probe loops on a stub client and the
operator-facing guard rails without spawning anything.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import subprocess
import sys

import pytest

from repro.faults.net_runner import run_net_plan
from repro.faults.oracle import judge
from repro.faults.presets import FAULT_PRESETS
from repro.net.client import NetClientError, workload
from repro.net.cluster import (
    ClusterError,
    LocalCluster,
    free_ports,
    make_genesis,
    wait_cluster_ready,
    wait_converged,
)


class TestGenesisGeneration:
    def test_ports_are_distinct_and_document_validates(self):
        genesis = make_genesis(4, seed=31)
        ports = [port for _host, port in genesis.addresses]
        assert len(set(ports)) == 4
        genesis.validate()

    def test_free_ports_never_hands_a_port_out_twice(self):
        # One probe bound and released at a time could (and in PR 12's
        # benchmark did) return the same port twice.
        ports = free_ports(64)
        assert len(ports) == len(set(ports)) == 64
        assert all(0 < port < 65536 for port in ports)

    def test_overrides_flow_through(self):
        genesis = make_genesis(4, seed=31, window=3, name="custom")
        assert genesis.window == 3
        assert genesis.name == "custom"


class TestClusterGuards:
    def test_kill_requires_a_running_replica(self, tmp_path):
        cluster = LocalCluster(make_genesis(4, seed=32), tmp_path)
        with pytest.raises(ClusterError):
            cluster.kill(0)

    def test_replica_cli_rejects_bad_pid_with_exit_2(self, tmp_path):
        genesis_path = make_genesis(4, seed=33).save(tmp_path / "genesis.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "net", "replica",
                "--genesis", str(genesis_path), "--pid", "9",
            ],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
        assert result.returncode == 2


class _StubClient:
    """Answers status probes from a script and refuses every set."""

    def __init__(self, probes):
        self.genesis = make_genesis(4, seed=34)
        self.probes = list(probes)
        self.sets = 0

    async def status(self, *, timeout):
        return self.probes.pop(0) if len(self.probes) > 1 else self.probes[0]

    async def set(self, key, value):
        self.sets += 1
        raise NetClientError("stub refuses")


def _replies(*pids):
    """A probe's replies; the loops only count them."""
    return {pid: f"status of {pid}" for pid in pids}


class TestProbeLoops:
    def test_ready_past_its_deadline_raises_cluster_error(self):
        # The deadline passes before the first probe: the error still
        # names what the (absent) last probe saw.
        client = _StubClient([_replies(0, 1)])
        with pytest.raises(ClusterError, match="saw 0/4 replicas"):
            asyncio.run(wait_cluster_ready(client, timeout=0))

    def test_ready_returns_once_every_replica_answers(self):
        client = _StubClient([_replies(0), _replies(0, 1, 2, 3)])
        asyncio.run(wait_cluster_ready(client, timeout=10.0))
        assert client.probes == [_replies(0, 1, 2, 3)]

    def test_converged_nudges_until_the_predicate_holds(self):
        client = _StubClient([_replies(0), _replies(0, 1, 2, 3)])
        replies, ok = asyncio.run(
            wait_converged(client, lambda r: len(r) == 4, timeout=10.0)
        )
        # One refused nudge between the two probes, tolerated.
        assert ok and replies == _replies(0, 1, 2, 3) and client.sets == 1

    def test_converged_past_its_deadline_returns_the_last_probe(self):
        client = _StubClient([_replies(0)])
        replies, ok = asyncio.run(
            wait_converged(client, lambda r: False, timeout=0)
        )
        assert not ok and replies == _replies(0) and client.sets == 0


class _LosingClient:
    """Commits every set but the one numbered ``lost``, which uses up its
    attempts."""

    def __init__(self, lost):
        self.genesis = make_genesis(4, seed=35)
        self.pid, self.resubmissions, self.lost, self.sets = 4, 0, lost, 0

    async def set(self, key, value, *, attempts=40):
        self.sets += 1
        if self.sets == self.lost:
            raise NetClientError("set got 1 of 2 needed replies after 40 attempts")
        return 0


class TestWorkload:
    def test_a_lost_set_is_issued_but_not_completed(self):
        client = _LosingClient(lost=2)
        stats = asyncio.run(workload(client, 4, concurrency=1))
        assert (stats["issued"], stats["completed"], client.sets) == (4, 3, 4)

    def test_a_shard_counts_the_sets_routed_to_it_lost_ones_included(self):
        from repro.shard.client import ShardedNetClient
        from repro.shard.loopback import loopback_shard_genesis

        client = ShardedNetClient(loopback_shard_genesis(2, seed=36), 0)
        for sub in client.clients.values():
            sub.set = _LosingClient(lost=1).set
        stats = asyncio.run(workload(client, 8, concurrency=1))
        assert stats["completed"] == 6
        assert sum(stats["sets_by_shard"].values()) == 8


class TestSubprocessCluster:
    def test_kill_restart_smoke_converges_exactly_once(self, tmp_path):
        (smoke,) = FAULT_PRESETS["net-smoke"]
        plan = dataclasses.replace(
            smoke, seed=19, requests=24, duration=8.0, kills=((1, 2.0, 4.0),)
        )
        observation = run_net_plan(plan, workdir=tmp_path, timeout=150.0)
        verdict, violations = judge(plan, observation)
        assert verdict == "pass", (violations, observation.extras)
        cluster = observation.cluster
        # sets_completed counts the workload plus the sentinel and any
        # convergence nudges — never fewer, duplicates never double-count.
        assert cluster.sets_completed >= 25
        assert observation.transfers[1] >= 1
        assert set(cluster.exit_codes.values()) == {0}
        assert all(
            facts.suffix_rejections == 0
            for facts in observation.facts.values()
        )
        logs = sorted(p.name for p in tmp_path.glob("node-*.log"))
        assert logs == ["node-0.log", "node-1.log", "node-2.log", "node-3.log"]
        metrics = list((tmp_path / "metrics").glob("node-*.jsonl"))
        assert len(metrics) == 4
