"""Tests: the subprocess fidelity of the fault campaign (docs/FAULTS.md).

The harvest that turns a torn-down cluster's leftovers (status replies +
per-node JSONL) into per-replica facts runs on synthetic artifacts, no
subprocesses needed. Then two regressions against real OS processes: the orphan-process guard —
``LocalCluster.terminate_all`` must SIGCONT a replica left SIGSTOPped
by a muteness scenario before the SIGTERM, or the frozen process
outlives the supervisor and is SIGKILLed only at the deadline — and one
short fault plan executed end-to-end at fidelity 3 (SIGSTOP muteness on
a real four-process TCP cluster) reaching the same ``pass`` verdict the
deterministic fidelities reach for it.
"""

from __future__ import annotations

import asyncio
import time

from repro.faults.loopback_runner import run_loopback_plan
from repro.faults.net_runner import harvest, run_net_plan
from repro.faults.oracle import judge, observe
from repro.faults.plan import FaultPlan
from repro.faults.sim_runner import run_sim_plan
from repro.net.client import NetClient
from repro.net.cluster import LocalCluster, make_genesis, wait_cluster_ready
from repro.net.messages import StatusReply
from repro.observability.export import write_run_jsonl
from repro.observability.registry import (
    MODULE_FAULTS,
    MODULE_SERVICE,
    MODULE_SIGNATURE,
    MODULE_ZOO,
    MetricsRegistry,
)
from repro.observability.trace import Trace

#: One short plan shared by the whole module: replica 1 goes mute at
#: t=2 (SIGSTOP at fidelity 3) and the other three finish the workload.
MUTE_PLAN = FaultPlan(
    name="net-mute",
    seed=31,
    requests=8,
    duration=6.0,
    mutes=((1, 2.0),),
)


class TestHarvest:
    """node-<pid>.jsonl + status replies -> facts, without a cluster."""

    PLAN = FaultPlan(
        name="harvest",
        requests=8,
        duration=6.0,
        mutes=((1, 2.0),),
        storage_flips=((0, 1.0, "log"),),
    )
    REASON = "signature module: invalid signature"

    @staticmethod
    def _export(directory, pid, counters, declared):
        metrics = MetricsRegistry()
        for (module, name), value in counters.items():
            metrics.inc(module, name, value, pid=pid)
        trace = Trace()
        trace.record(0.5, "deliver", process=pid)
        for target, reason in declared:
            trace.record(
                1.0, "declare_faulty", process=pid, target=target, reason=reason
            )
        write_run_jsonl(directory / f"node-{pid}.jsonl", trace, metrics)

    @staticmethod
    def _status(pid, **fields):
        base = dict(
            replica=pid, client=4, req_id=0, applied=8, committed=8,
            store_applied=8, digest="d", stable_count=2, transfers=0,
            suffix_rejections=0,
        )
        return StatusReply(**{**base, **fields})

    def _harvest(self, tmp_path):
        # Replica 0: live, exported, answered. Replica 1: the muted
        # (faulty) one — it exported, with counters and a declaration of
        # its own, but was never asked for a status. Replica 2: answered
        # the probe, export missing. Replica 3: a torn export, no answer.
        self._export(
            tmp_path,
            0,
            {
                (MODULE_SIGNATURE, "messages_rejected"): 3,
                (MODULE_SERVICE, "state_responses_rejected"): 2,
                (MODULE_FAULTS, "arb_faults_injected"): 1,
                (MODULE_ZOO, "storage_flips_injected"): 4,
            },
            [(1, self.REASON)],
        )
        self._export(
            tmp_path,
            1,
            {
                (MODULE_SIGNATURE, "messages_rejected"): 50,
                (MODULE_SERVICE, "state_responses_rejected"): 50,
                (MODULE_ZOO, "storage_flips_injected"): 1,
            },
            [(0, self.REASON)],
        )
        (tmp_path / "node-3.jsonl").write_text("{not json", encoding="utf-8")
        statuses = {
            0: self._status(0, suffix_rejections=1),
            2: self._status(2, transfers=1),
        }
        return harvest(self.PLAN, tmp_path, statuses)

    def test_facts_per_replica(self, tmp_path):
        replicas, declarations, injected = self._harvest(tmp_path)
        assert sorted(replicas) == [0, 1, 2]
        assert (replicas[0].committed, replicas[0].digest) == (8, "d")
        assert replicas[0].suffix_rejections == 1
        assert replicas[0].counter(MODULE_SIGNATURE, "messages_rejected") == 3
        # Exported but silent: counters, no final state.
        assert replicas[1].committed is None and replicas[1].digest is None
        assert replicas[1].counter(MODULE_SIGNATURE, "messages_rejected") == 50
        # Answered but never exported: final state, zero counters.
        assert replicas[2].transfers == 1
        assert replicas[2].counter(MODULE_SIGNATURE, "messages_rejected") == 0
        assert declarations == [(0, 1, self.REASON), (1, 0, self.REASON)]
        # Injection counters are summed over every export, faulty or not.
        assert injected(MODULE_FAULTS, "arb_faults_injected") == 1
        assert injected(MODULE_ZOO, "storage_flips_injected") == 4 + 1

    def test_reduction_ignores_the_faulty_replicas_export(self, tmp_path):
        replicas, declarations, injected = self._harvest(tmp_path)
        observation = observe(
            self.PLAN,
            "net",
            completed=8,
            replicas=replicas,
            declarations=declarations,
            injected=injected,
            extras={},
        )
        assert observation.committed == {0: 8, 2: 8}
        assert observation.declared == ((0, 1, self.REASON),)
        assert observation.signature_rejections == 3
        assert observation.zoo == {
            "storage_flips_injected": 5,
            "storage_rejections": 1 + 2,
        }
        # Replica 3 left nothing usable: the judge, not the harvest,
        # says so.
        verdict, violations = judge(self.PLAN, observation)
        assert verdict == "fail"
        assert any("replica 3" in v for v in violations)


class TestOrphanGuard:
    def test_terminate_all_reaps_a_sigstopped_replica(self, tmp_path):
        async def scenario():
            genesis = make_genesis(4, seed=41, name="orphan")
            cluster = LocalCluster(genesis, tmp_path)
            client = NetClient(genesis, 0)
            try:
                cluster.start_all()
                await wait_cluster_ready(client, timeout=30.0)
                cluster.stop(1)  # the muteness fault: frozen, not dead
            finally:
                await client.close()
            started = time.monotonic()
            codes = cluster.terminate_all(timeout=10.0)
            elapsed = time.monotonic() - started
            return codes, elapsed

        codes, elapsed = asyncio.run(scenario())
        # The guard SIGCONTs before SIGTERM, so the frozen replica runs
        # its graceful shutdown (exit 0). Without it, SIGTERM is queued
        # behind the freeze: the replica burns the whole deadline and is
        # SIGKILLed (-9) — the orphan this test pins down.
        assert codes[1] == 0, codes
        assert all(code == 0 for code in codes.values()), codes
        assert elapsed < 8.0, f"teardown took {elapsed:.1f}s"

    def test_kill_thaws_a_sigstopped_replica_first(self, tmp_path):
        async def scenario():
            genesis = make_genesis(4, seed=42, name="thaw")
            cluster = LocalCluster(genesis, tmp_path)
            client = NetClient(genesis, 0)
            try:
                cluster.start_all()
                await wait_cluster_ready(client, timeout=30.0)
                cluster.stop(2)
                started = time.monotonic()
                cluster.kill(2)  # must SIGCONT first, then SIGKILL lands
                elapsed = time.monotonic() - started
            finally:
                await client.close()
                cluster.terminate_all(timeout=10.0)
            return elapsed

        elapsed = asyncio.run(scenario())
        assert elapsed < 5.0, f"kill of a stopped replica took {elapsed:.1f}s"


class TestNetFidelity:
    def test_mute_plan_verdict_matches_the_deterministic_fidelities(
        self, tmp_path
    ):
        observation = run_net_plan(
            MUTE_PLAN, workdir=tmp_path / "net", timeout=90.0
        )
        verdict, violations = judge(MUTE_PLAN, observation)
        assert verdict == "pass", (violations, observation.extras)
        assert not observation.extras.get("timed_out")
        # The SIGSTOPped replica is excused; the three live replicas all
        # executed the full workload and agree on the digest.
        assert observation.completed >= MUTE_PLAN.requests
        assert set(observation.digests) == {0, 2, 3}
        assert len(set(observation.digests.values())) == 1

        # The same plan, same verdict, at both deterministic fidelities —
        # the cross-fidelity contract for this scenario id.
        for run in (run_sim_plan, run_loopback_plan):
            twin_verdict, twin_violations = judge(MUTE_PLAN, run(MUTE_PLAN))
            assert twin_verdict == "pass", (run.__name__, twin_violations)
