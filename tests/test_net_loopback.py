"""Tests: the net runtime on the deterministic loopback twin.

The deployment's own classes — :class:`NetNode`, :class:`PeerTransport`
with its dialers and accept path, :class:`NetClient` — on a
:class:`VirtualTimeLoop`, whose in-memory streams replace sockets and
whose clock jumps from timer to timer — so the full deployment
(commits, quorum reads, kill/rejoin via certified state transfer) runs
deterministically inside the test process with no sockets or sleeps.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.net.clock import WallScheduler
from repro.net.cluster import make_genesis
from repro.net.loopback import TWIN_TIMERS, LoopbackCluster
from repro.net.node import NetNode
from repro.net.transport import PeerTransport
from repro.observability.export import read_run_jsonl

from tests.helpers import Mesh, Ops, group_state


class Deployment:
    """4 replicas + 1 client on one virtual-time loop."""

    def __init__(self, seed=3, **overrides):
        self.genesis = make_genesis(
            4, seed=seed, **TWIN_TIMERS, **overrides
        )
        self.cluster = LoopbackCluster(self.genesis)
        self.nodes = self.cluster.nodes
        self.client = Ops(self.cluster)

    def up(self, pid, join=False, metrics_path=None):
        """A replica with a metrics file, booted as ``LoopbackCluster.up`` does."""
        cluster = self.cluster
        node = NetNode(
            self.genesis, pid, WallScheduler(cluster.loop), join=join,
            metrics_path=metrics_path,
        )
        transport = PeerTransport(
            self.genesis, pid, node.handle_message, metrics=node.net_metrics
        )
        node.attach_transport(transport)
        cluster.nodes[pid], cluster.transports[pid] = node, transport
        cluster.spawn(cluster._boot(node, transport))
        return node

    def pump(self, seconds):
        self.cluster.pump(seconds)

    def commit(self, count, prefix="v"):
        ids = [
            self.client.set(f"k{i % 8}", f"{prefix}{i}") for i in range(count)
        ]
        self.pump(8)
        return ids

    def digests(self):
        return group_state(self.cluster, "digest")


@pytest.fixture
def deployments():
    made = []

    def make(**kwargs):
        made.append(Deployment(**kwargs))
        return made[-1]

    yield make
    for deployment in made:
        deployment.cluster.close()


class TestLoopbackDeployment:
    def test_commits_workload_exactly_once(self, deployments):
        deployment = deployments(seed=3)
        ids = deployment.commit(30)
        assert deployment.client.completed == set(ids)
        committed = {
            node.process.slotlog.committed_commands
            for node in deployment.nodes.values()
        }
        assert committed == {30}
        assert len(set(deployment.digests().values())) == 1

    def test_quorum_read_returns_committed_value(self, deployments):
        deployment = deployments(seed=4)
        client = deployment.client
        client.set("answer", "42")
        deployment.pump(5)
        req_id = client.get("answer")
        deployment.pump(1)
        assert client.results[req_id] == (True, "42")
        missing = client.get("never-written")
        deployment.pump(1)
        assert client.results[missing] == (False, None)

    def test_status_probe_reports_all_replicas(self, deployments):
        deployment = deployments(seed=5)
        deployment.commit(8)
        req_id = deployment.client.status()
        deployment.pump(1)
        statuses = deployment.client.results[req_id]
        assert set(statuses) == {0, 1, 2, 3}
        assert {status.committed for status in statuses.values()} == {8}
        assert len({status.digest for status in statuses.values()}) == 1

    def test_kill_and_rejoin_via_certified_transfer(self, deployments):
        deployment = deployments(seed=6)
        deployment.commit(16, prefix="a")
        deployment.cluster.kill(2)
        deployment.commit(16, prefix="b")
        deployment.cluster.rejoin(2)
        rejoined = deployment.nodes[2]
        deployment.pump(10)
        deployment.commit(8, prefix="c")
        deployment.pump(10)
        assert len(deployment.client.completed) == 40
        assert len(set(deployment.digests().values())) == 1
        assert rejoined.process.slotlog.committed_commands == 40
        assert len(rejoined.process.state_transfers_completed) >= 1
        assert rejoined.process.suffix_rejections == 0

    def test_a_rejoiner_certifies_a_transfer_before_its_peers_backlogs(
        self, deployments
    ):
        # Replica 2 dies having applied nothing; its peers' dialers keep
        # every frame they send it meanwhile and flush them on rejoin,
        # ahead of the answers to its state request.
        deployment = deployments(seed=9)
        deployment.cluster.kill(2)
        deployment.commit(8)
        assert deployment.cluster.transports[0]._dialers[2]._backlog
        deployment.cluster.rejoin(2)
        rejoined = deployment.nodes[2]
        deployment.pump(10)
        assert len(set(deployment.digests().values())) == 1
        assert rejoined.process.slotlog.committed_commands == 8
        assert len(rejoined.process.state_transfers_completed) >= 1
        assert rejoined.process._held is None  # what it held was released

    def test_metrics_export_is_a_valid_artifact(self, deployments, tmp_path):
        deployment = deployments(seed=7)
        target = tmp_path / "node-0.jsonl"
        deployment.cluster.kill(0)
        deployment.up(0, metrics_path=target)
        deployment.commit(8)
        deployment.pump(3)  # past metrics_interval
        artifact = read_run_jsonl(target)
        assert artifact.meta["runtime"] == "net"
        assert artifact.meta["node"] == 0
        modules = set(artifact.metrics.totals_by_module())
        assert "net" in modules

    def test_node_guards_its_contract(self, deployments):
        deployment = deployments(seed=8)
        scheduler = WallScheduler(deployment.cluster.loop)
        with pytest.raises(ConfigurationError):
            NetNode(deployment.genesis, 9, scheduler)
        bare = NetNode(deployment.genesis, 1, scheduler)
        with pytest.raises(ConfigurationError):
            bare.start()  # no transport attached
        deployment.pump(0.1)
        twin = PeerTransport(deployment.genesis, 1, lambda src, message: None)
        with pytest.raises(OSError):  # pid 1's address is served already
            deployment.cluster.loop.run_until_complete(twin.start())


def test_pump_runs_exactly_the_time_asked():
    genesis = make_genesis(4, seed=9, request_timeout=0.6)
    with LoopbackCluster(genesis) as cluster:
        for seconds in (0.05, 0.05, 0.3, 1.0, 0.05):
            before = cluster.loop.time()
            cluster.pump(seconds)
            assert cluster.loop.time() == before + seconds


class TestDrainOrdering:
    """Regression: a receiver never observes a reaction before its cause.

    The contract the protocol relies on — the reason it is safe over
    these streams — is that when node 0 sends INIT to nodes 1 and 2 and
    node 1 reacts to it with a CURRENT, node 2 sees the INIT first. Each
    connection is FIFO, and node 0's copy to node 2 is on its way before
    node 1 has even received its own. These tests pin the exact order
    so that a change to the streams or the dialers shows up as a diff,
    not a heisenbug.
    """

    @staticmethod
    def _mesh():
        genesis = make_genesis(4, seed=10, name="drain")

        def react(transports, pid, src, message):
            # INIT triggers an immediate broadcast reaction.
            if message == "init-0" and pid == 1:
                for dst in (0, 2):
                    transports[pid].send(dst, "current-1")

        return Mesh(genesis, (0, 1, 2), react=react)

    def _run(self, *sends):
        mesh = self._mesh()
        try:
            return [entry[:3] for entry in mesh.run(1.0, *sends)]
        finally:
            mesh.close()

    def test_receiver_never_sees_the_reaction_before_its_cause(self):
        log = self._run((0, 1, "init-0"), (0, 2, "init-0"))
        seen_at_2 = [payload for src, dst, payload in log if dst == 2]
        assert seen_at_2.index("init-0") < seen_at_2.index("current-1"), (
            "node 2 observed node 1's CURRENT before the INIT that "
            f"caused it: {seen_at_2}"
        )

    def test_exact_drain_trace_is_pinned(self):
        log = self._run((0, 1, "init-0"), (0, 2, "init-0"), (2, 0, "init-2"))
        # Every connection dials at the same instant; arrivals follow
        # the order the dials completed, then node 1's reaction.
        assert log == [
            (0, 1, "init-0"),
            (0, 2, "init-0"),
            (2, 0, "init-2"),
            (1, 0, "current-1"),
            (1, 2, "current-1"),
        ]

    def test_trace_is_identical_across_runs(self):
        sends = ((0, 1, "init-0"), (0, 2, "init-0"), (2, 0, "init-2"))
        assert self._run(*sends) == self._run(*sends)


class TestLinkPolicy:
    """Every send's one point of variation: ``link(now, src, dst, payload)``."""

    @staticmethod
    def _run(link, *payloads):
        mesh = Mesh(make_genesis(4, seed=11, name="link"), (0, 1), link=link)
        try:
            log = mesh.run(1.0, *((0, 1, payload) for payload in payloads))
            return [(src, message, at) for src, _, message, at in log], mesh
        finally:
            mesh.close()

    def test_verdict_vocabulary(self):
        verdicts = {
            "pass": None,
            "drop": [],
            "dup": [("dup", 0.0), ("dup", 0.0)],
            "late": [("late", 0.5)],
        }
        log, mesh = self._run(
            lambda now, src, dst, payload: verdicts[payload],
            "late", "drop", "dup", "pass",
        )
        assert log == [
            (0, "dup", 0.0),
            (0, "dup", 0.0),
            (0, "pass", 0.0),
            (0, "late", 0.5),
        ]
        assert (mesh.counter("frames_sent"), mesh.counter("frames_unencodable")) == (4, 0)

    def test_an_unencodable_copy_is_counted_and_its_sibling_delivered(self):
        # A corrupting policy may emit a copy the codec refuses; that
        # costs exactly that copy, whichever position it holds.
        log, mesh = self._run(
            lambda now, src, dst, payload: [(object(), 0.0), (payload, 0.1)],
            "good",
        )
        assert log == [(0, "good", 0.1)]
        assert (mesh.counter("frames_sent"), mesh.counter("frames_unencodable")) == (1, 1)

    def test_a_client_copy_the_codec_refuses_costs_that_copy_only(self):
        # The client drops and counts an unencodable copy as a transport
        # does: its set completes through replicas 1-3.
        def link(now, src, dst, payload):
            return [(object(), 0.0)] if (src, dst) == (4, 0) else None

        genesis = make_genesis(4, seed=12, name="client-link", **TWIN_TIMERS)
        with LoopbackCluster(genesis, link=link) as cluster:
            ops = Ops(cluster)
            req_id = ops.set("k", "v")
            cluster.pump(2.0)
            assert req_id in ops.results
            # One refused copy per send of the request, all toward 0.
            metrics = cluster.clients[0].metrics
            refused = metrics.counter("net", "frames_unencodable", pid=0)
            assert refused == ops.sent[req_id] >= 1
            assert metrics.counter_total("net", "frames_unencodable") == refused

