"""Tests: real OS-process cluster orchestration (repro.net.cluster).

The heavyweight test here is a scaled-down `make net-smoke`: four
replica subprocesses over real TCP, one SIGKILLed and restarted
mid-workload, convergence and exactly-once asserted from the verdict
record. The rest covers genesis generation and the operator-facing
guard rails without spawning anything.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys

import pytest

from repro.net.cluster import (
    ClusterError,
    LocalCluster,
    free_ports,
    make_genesis,
    run_cluster_smoke,
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


class TestSubprocessCluster:
    def test_kill_restart_smoke_converges_exactly_once(self, tmp_path):
        verdict = asyncio.run(
            run_cluster_smoke(
                replicas=4,
                requests=24,
                kill_pid=1,
                seed=19,
                workdir=tmp_path,
                concurrency=4,
                converge_timeout=90.0,
            )
        )
        assert verdict["ok"]
        # sets_completed counts the workload plus the sentinel and any
        # convergence nudges — never fewer, duplicates never double-count.
        assert verdict["committed"] >= 25
        assert verdict["transfers"][1] >= 1
        assert set(verdict["exit_codes"].values()) == {0}
        assert all(r == 0 for r in verdict["suffix_rejections"].values())
        logs = sorted(p.name for p in tmp_path.glob("node-*.log"))
        assert logs == ["node-0.log", "node-1.log", "node-2.log", "node-3.log"]
        metrics = list((tmp_path / "metrics").glob("node-*.jsonl"))
        assert len(metrics) == 4
