"""Tests: the deterministic sharded loopback twin (docs/SHARDING.md).

The twin runs every shard's deployment — :class:`NetNode`,
:class:`PeerTransport`, :class:`NetClient` — on one shared
:class:`VirtualTimeLoop` — same codec, same certificates, same state
transfer — so these tests can pin the strongest contracts cheaply:
byte-identical smoke records across runs (the ``make shard-smoke``
``cmp`` depends on this), each shard judged by the fault engine's
``judge`` as the plan it ran, kill/rejoin via certified transfer inside
one shard with zero blast radius on the others, and the scaling cell's
verdicts.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults.injector import LinkFaultInjector
from repro.faults.loopback_runner import group_facts, loopback_genesis, observe_group
from repro.faults.oracle import FidelityObservation, judge, settled
from repro.faults.plan import FaultPlan
from repro.net.cluster import make_genesis
from repro.net.loopback import LoopbackCluster
from repro.net.node import NetNode
from repro.shard.loopback import (
    ShardedLoopbackCluster,
    loopback_scaling_cell,
    loopback_shard_genesis,
    run_loopback_smoke,
    smoke_json,
    link_latency,
)
from repro.shard.verdict import shard_plans, shard_verdicts

from tests.helpers import Mesh, Ops, group_state


class TestSmokeRecord:
    def test_double_run_is_byte_identical(self):
        first = run_loopback_smoke(requests=16)
        second = run_loopback_smoke(requests=16)
        assert first["ok"]
        assert smoke_json(first) == smoke_json(second)

    def test_kill_rejoin_transfers_state(self):
        record = run_loopback_smoke(requests=16, kill_shard=1, kill_pid=2)
        assert record["ok"]
        assert record["transfers"]["1"]["2"] >= 1
        # Exactly-once, per shard: every replica committed exactly what
        # the client routed to its shard.
        for shard, routed in record["routed"].items():
            assert all(
                count == routed
                for count in record["committed"][shard].values()
            )

    def test_no_kill_variant(self):
        record = run_loopback_smoke(requests=16, kill_shard=None)
        assert record["ok"]
        assert record["kill"] is None
        assert record["transfers"] == {}

    def test_shards_have_distinct_digests(self):
        record = run_loopback_smoke(requests=16)
        per_shard = [
            next(iter(digests.values()))
            for digests in record["digests"].values()
        ]
        assert len(set(per_shard)) == len(per_shard)

    def test_distinct_genesis_id_per_shard(self):
        record = run_loopback_smoke(requests=8)
        ids = list(record["genesis_ids"].values())
        assert len(set(ids)) == len(ids)

    def test_kill_shard_out_of_range_raises(self):
        with pytest.raises(ConfigurationError):
            run_loopback_smoke(shards=2, kill_shard=5)

    def test_every_shard_is_judged_as_the_plan_it_ran(self):
        record = run_loopback_smoke(requests=16)
        assert record["verdicts"] == {"0": "pass", "1": "pass"}
        assert record["violations"] == {"0": [], "1": []}
        assert record["isolation"] == []

    def test_a_correct_replica_that_raises_fails_its_shard(self, monkeypatch):
        # Replica 1 of shard 0 raises on every fifth message it handles;
        # its transport counts and drops each, so the shard still
        # converges, and only the judge's loudness check sees it.
        handle = NetNode.handle_message
        seen = []

        def flaky(node, src, payload):
            if node.pid == 1 and node.genesis.name.endswith("/s0"):
                seen.append(src)
                if len(seen) % 5 == 0:
                    raise RuntimeError("injected handler fault")
            handle(node, src, payload)

        monkeypatch.setattr(NetNode, "handle_message", flaky)
        record = run_loopback_smoke(requests=16)
        assert not record["ok"]
        assert record["verdicts"] == {"0": "fail", "1": "pass"}
        (found,) = record["violations"]["0"]
        assert found.startswith("handler: replica 1 raised in ")
        assert record["violations"]["1"] == []

    def test_a_shard_routed_nothing_still_settles_and_passes(self):
        # One set across four shards: three idle groups, each judged by a
        # plan of zero requests (a floor of 0; one digest still required).
        record = run_loopback_smoke(shards=4, requests=1, kill_shard=None)
        assert sorted(record["routed"].values()) == [0, 0, 0, 1]
        assert record["ok"]
        assert set(record["verdicts"].values()) == {"pass"}
        for digests in record["digests"].values():
            assert len(digests) == 4 and len(set(digests.values())) == 1


class TestCrossShardChecks:
    """A lost commit and the one check that spans shards, on hand-made
    observations."""

    @staticmethod
    def _verdicts(routed, committed, digests):
        plans = shard_plans(routed, n_replicas=4, seed=0, duration=1.0)
        observations = {
            shard: FidelityObservation(
                fidelity="loopback",
                completed=routed[shard],
                committed=dict.fromkeys(range(4), committed[shard]),
                digests=dict.fromkeys(range(4), digests[shard]),
            )
            for shard in routed
        }
        return shard_verdicts(plans, observations)

    def test_a_shard_that_lost_commits_breaks_the_blast_radius(self):
        # A kill elsewhere that cost shard 1 commits fails shard 1's own
        # progress floor; no cross-shard check is needed to see it.
        verdicts = self._verdicts({0: 0, 1: 5}, {0: 0, 1: 3}, {0: "a", 1: "b"})
        assert not verdicts["ok"]
        assert verdicts["isolation"] == []
        assert verdicts["verdicts"] == {"0": "pass", "1": "fail"}
        assert {v.split(":")[0] for v in verdicts["violations"]["1"]} == {"progress"}

    def test_two_busy_shards_may_not_share_a_digest_two_idle_ones_may(self):
        verdicts = self._verdicts(
            {0: 2, 1: 2, 2: 0, 3: 0}, dict.fromkeys(range(4), 2),
            {0: "same", 1: "same", 2: "empty", 3: "empty"},
        )
        assert verdicts["isolation"] == [
            "isolation: shards [0, 1] report one state digest same"
        ]


class TestClusterGuards:
    def test_client_budget_enforced(self):
        genesis = loopback_shard_genesis(2)
        with pytest.raises(ConfigurationError):
            ShardedLoopbackCluster(genesis, clients=99)

    def test_genesis_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            loopback_shard_genesis(0)

    def test_blast_radius_of_a_kill_is_one_shard(self):
        genesis = loopback_shard_genesis(2)
        cluster = ShardedLoopbackCluster(genesis)
        try:
            for i in range(8):
                cluster.submit(f"k{i}", f"v{i}")
            cluster.pump(4.0)
            untouched = {
                shard: group_state(cluster.groups[shard], "committed")
                for shard in range(2)
                if shard != 1
            }
            cluster.groups[1].kill(2)
            cluster.pump(4.0)
            for shard, before in untouched.items():
                after = group_state(cluster.groups[shard], "committed")
                assert all(after[pid] >= before[pid] for pid in before)
        finally:
            cluster.close()


@pytest.fixture
def meshes():
    """Transports of pids ``(0, 1, 2)`` under a link; every arrival is
    logged as ``(src, dst, message, at)``."""
    made = []

    def make(link, pids=(0, 1, 2)):
        made.append(Mesh(make_genesis(4, seed=13, name="latency"), pids, link=link))
        return made[-1]

    yield make
    for mesh in made:
        mesh.close()


class TestLatencyHubLinks:
    """Per-link virtual delays: heterogeneous fabrics are modelable."""

    def test_slow_link_arrives_later(self, meshes):
        arrivals = meshes(link_latency(0.01, {(0, 1): 0.5})).run(
            1.0,
            (0, 1, {"type": "status_request"}),
            (0, 2, {"type": "status_request"}),
        )
        assert [dst for _, dst, _, _ in arrivals] == [2, 1]
        times = {dst: at for _, dst, _, at in arrivals}
        assert times[2] == pytest.approx(0.01)
        assert times[1] == pytest.approx(0.5)

    def test_unlisted_links_use_uniform_delay(self):
        link = link_latency(0.25, {(1, 2): 0.75})
        assert link(0.0, 1, 2, "m") == [("m", 0.75)]
        assert link(0.0, 2, 1, "m") == [("m", 0.25)]
        assert link(0.0, 0, 1, "m") == [("m", 0.25)]

    def test_per_link_fifo_survives_heterogeneity(self, meshes):
        mesh = meshes(link_latency(0.01, {(0, 1): 0.3}))
        arrivals = mesh.run(1.0, *((0, 1, f"m{index}") for index in range(4)))
        # Constant per-link delay: the slow link delays but never
        # reorders its own traffic.
        assert [msg for _, _, msg, _ in arrivals] == ["m0", "m1", "m2", "m3"]
        assert mesh.counter("frames_received") == 4

    def test_empty_map_is_the_uniform_default(self):
        link = link_latency(link_delays={})
        assert link(0.0, 0, 1, "m") == link_latency()(0.0, 0, 1, "m")

    def test_cluster_completes_over_heterogeneous_links(self):
        genesis = loopback_shard_genesis(2)
        # Every link into and out of replica 0 is 10x slower, in every
        # shard — a laggard-rack model. Progress must survive it.
        slow = {
            link: 0.05
            for pid in range(1, 4)
            for link in ((0, pid), (pid, 0))
        }
        cluster = ShardedLoopbackCluster(genesis, link_delays=slow)
        try:
            for i in range(12):
                cluster.submit(f"k{i}", f"v{i}")
            assert cluster.run_until_complete(budget=60.0)
        finally:
            cluster.close()


class TestComposedPolicies:
    """Latency ∘ faults: the run two sibling hub subclasses ruled out.

    One plan — a partition window plus probabilistic loss — decided by
    the fault injector, every surviving copy then charged the twin's
    per-hop latency. The composition is a plain function over two link
    policies; neither the transports nor the policies know about each
    other.
    """

    PLAN = FaultPlan(
        name="latency-under-faults",
        seed=12,
        requests=12,
        duration=12.0,
        partitions=((3.0, 6.0, "0,1|2,3"),),
        loss=0.02,
    )

    @classmethod
    def _composed(cls):
        injector = LinkFaultInjector(cls.PLAN)
        latency = link_latency(0.005, {(0, 1): 0.05})

        def link(now, src, dst, payload):
            verdict = injector.plan_deliveries(now, src, dst, payload)
            if verdict is None:
                verdict = [(payload, 0.0)]
            return [
                (copy, held + hop)
                for copy, held in verdict
                for _, hop in latency(now, src, dst, copy)
            ]

        return injector, link

    def test_per_link_fifo_survives_partition_loss_and_latency(self, meshes):
        injector, link = self._composed()
        mesh = meshes(link, pids=(0, 1, 2))
        sends = 40
        for index in range(sends):
            # 0 -> 1 stays inside the partition group, 0 -> 2 crosses it.
            for dst in (1, 2):
                mesh.send_at(index * 0.25, 0, dst, index)
        arrivals = mesh.run(12.0)
        for dst in (1, 2):
            seen = [msg for _, to, msg, _ in arrivals if to == dst]
            assert seen == sorted(seen), f"link 0->{dst} reordered: {seen}"
            assert len(set(seen)) == len(seen)
        assert injector.drops["loss"] > 0
        assert len(arrivals) == 2 * sends - injector.drops["loss"]
        # Traffic across the cut is withheld until the heal instant,
        # then still pays the hop; traffic inside a group only the hop.
        assert injector.partition_delays > 0
        crossing = {msg: at for _, to, msg, at in arrivals if to == 2}
        held = [at for msg, at in crossing.items() if 3.0 <= msg * 0.25 < 6.0]
        assert held and all(at == pytest.approx(6.005) for at in held)
        inside = {msg: at for _, to, msg, at in arrivals if to == 1}
        assert all(
            at == pytest.approx(msg * 0.25 + 0.05) for msg, at in inside.items()
        )

    def test_a_group_converges_under_the_composed_policy(self):
        plan = self.PLAN
        injector, link = self._composed()
        genesis = loopback_genesis(plan)
        with LoopbackCluster(genesis, link=link) as cluster:
            ops = Ops(cluster)
            for index in range(plan.requests):
                cluster.scheduler.schedule_after(
                    index * 0.7,
                    "request",
                    lambda i=index: ops.set(f"k{i % 4}", f"v{i}"),
                )
            cluster.pump(plan.duration)
            # The fault engine's own rule and verdict, as for any group.
            assert cluster.run_until(
                lambda: settled(plan, group_facts(cluster), len(ops.completed)),
                40.0,
            )
            writes = [(ops.pid, req_id) for req_id in sorted(ops.completed)]
            assert judge(plan, observe_group(plan, cluster, writes)) == ("pass", [])
            assert set(group_state(cluster, "committed").values()) == {plan.requests}
        assert injector.partition_delays > 0 and injector.drops["loss"] > 0


class TestScalingCell:
    def test_cell_oracles_hold(self):
        cell = loopback_scaling_cell(shards=2, requests=128)
        assert cell["all_complete"]
        assert cell["converged"]
        assert cell["exactly_once"]
        assert cell["verdicts"] == {"0": "pass", "1": "pass"}
        assert cell["isolation"] == []
        assert cell["completed"] == 128
        assert sum(int(c) for c in cell["routed"].values()) == 128
        assert cell["throughput"] > 0

    def test_offered_load_is_shard_count_independent(self):
        one = loopback_scaling_cell(shards=1, requests=128)
        two = loopback_scaling_cell(shards=2, requests=128)
        assert one["requests"] == two["requests"]
        assert sum(int(c) for c in one["routed"].values()) == sum(
            int(c) for c in two["routed"].values()
        )
