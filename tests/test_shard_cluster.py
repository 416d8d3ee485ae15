"""Tests: sharded multi-group cluster orchestration (repro.shard.cluster).

The heavyweight test is a scaled-down ``make shard-smoke``: two shards
of four replica subprocesses each over real TCP, one replica SIGKILLed
and rejoined *in one shard* mid-workload, then per-shard convergence,
exactly-once and blast-radius asserted from the verdict record. The
rest covers genesis generation and operator-facing guard rails (CLI
exit 2 on misconfiguration) without spawning sixteen processes.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.shard.cluster import (
    ShardedLocalCluster,
    make_shard_genesis,
    run_shard_smoke,
    ShardClusterError,
)


def _cli(*argv: str, timeout: float = 60) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


class TestGenesisGeneration:
    def test_ports_are_distinct_across_shards(self):
        genesis = make_shard_genesis(2, 4, seed=31)
        ports = [
            port for group in genesis.addresses for _host, port in group
        ]
        assert len(set(ports)) == 8
        genesis.validate()

    def test_overrides_flow_through(self):
        genesis = make_shard_genesis(2, 4, seed=31, window=3, name="custom")
        assert genesis.window == 3
        assert genesis.name == "custom"
        assert genesis.genesis_for(1).window == 3

    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            make_shard_genesis(0)


class TestClusterGuards:
    def test_out_of_range_shard_raises(self, tmp_path):
        cluster = ShardedLocalCluster(make_shard_genesis(2, seed=32), tmp_path)
        with pytest.raises(ShardClusterError):
            cluster.kill(5, 0)

    def test_workdir_carries_one_subdir_per_shard(self, tmp_path):
        ShardedLocalCluster(make_shard_genesis(2, seed=33), tmp_path)
        assert (tmp_path / "shard-genesis.json").exists()
        assert (tmp_path / "shard-0").exists()
        assert (tmp_path / "shard-1").exists()

    def test_smoke_rejects_kill_shard_out_of_range(self):
        with pytest.raises(ConfigurationError):
            asyncio.run(run_shard_smoke(shards=2, kill_shard=7))


class TestShardCli:
    def test_cluster_rejects_bad_kill_shard_with_exit_2(self):
        result = _cli(
            "shard", "cluster", "--shards", "2", "--kill-shard", "9"
        )
        assert result.returncode == 2
        assert "error:" in result.stderr

    def test_route_requires_a_shard_count_with_exit_2(self):
        result = _cli("shard", "route", "some-key")
        assert result.returncode == 2

    def test_keygen_route_round_trip(self, tmp_path):
        genesis_path = tmp_path / "shard-genesis.json"
        keygen = _cli(
            "shard", "keygen", "--out", str(genesis_path), "--shards", "3"
        )
        assert keygen.returncode == 0
        assert genesis_path.exists()
        route = _cli(
            "shard", "route", "--genesis", str(genesis_path), "k0", "k1"
        )
        assert route.returncode == 0
        assert "-> shard" in route.stdout

    def test_loopback_cli_is_byte_identical(self, tmp_path):
        first = _cli("shard", "loopback", "--requests", "12", timeout=120)
        second = _cli("shard", "loopback", "--requests", "12", timeout=120)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert "ok" in first.stderr


class TestSubprocessShardCluster:
    def test_kill_rejoin_in_one_shard_converges_exactly_once(self, tmp_path):
        verdict = asyncio.run(
            run_shard_smoke(
                shards=2,
                replicas_per_shard=4,
                requests=24,
                kill_shard=1,
                kill_pid=2,
                seed=19,
                workdir=tmp_path,
                concurrency=4,
                converge_timeout=90.0,
            )
        )
        assert verdict["ok"]
        assert verdict["verdicts"] == {"0": "pass", "1": "pass"}
        assert verdict["isolation"] == []
        assert verdict["killed"] == {"shard": 1, "pid": 2}
        # The workload plus two sentinels, never fewer; each shard's
        # exactly-once is its judge's, against its client's counts.
        assert sum(verdict["sets_by_shard"].values()) >= 26
        assert verdict["transfers"]["1"]["2"] >= 1
        # Per-shard digests prove disjoint histories.
        assert verdict["digests"]["0"]["0"] != verdict["digests"]["1"]["0"]
        for codes in verdict["exit_codes"].values():
            assert set(codes.values()) == {0}
        # One supervised workdir per shard, with logs for every replica.
        for shard in (0, 1):
            logs = sorted(
                p.name for p in (tmp_path / f"shard-{shard}").glob("node-*.log")
            )
            assert logs == [f"node-{pid}.log" for pid in range(4)]
