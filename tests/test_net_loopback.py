"""Tests: the net runtime on the in-memory loopback fabric.

Same :class:`NetNode` hosts, same wire codec on every hop, but the
transport is :class:`LoopbackHub` and the clock is
:class:`ManualScheduler` — so the full deployment (commits, quorum
reads, kill/rejoin via certified state transfer) runs deterministically
inside the test process with no sockets or sleeps.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.net import (
    LoopbackHub,
    ManualScheduler,
    NetNode,
    TransportError,
    make_genesis,
)
from repro.net.loopback import LoopbackClient
from repro.observability.export import read_run_jsonl
from repro.service.checkpoint import service_digest


class Deployment:
    """4 replicas + 1 client on one hub and one manual clock."""

    def __init__(self, seed=3, **overrides):
        self.genesis = make_genesis(
            4, seed=seed, request_timeout=0.6, stall_probe=2.0, **overrides
        )
        self.scheduler = ManualScheduler()
        self.hub = LoopbackHub(self.scheduler)
        self.nodes: dict[int, NetNode] = {}
        for pid in range(4):
            self.up(pid)
        self.client = LoopbackClient(self.genesis, self.hub, self.scheduler)

    def up(self, pid, join=False, metrics_path=None):
        node = NetNode(
            self.genesis, pid, self.scheduler, join=join,
            metrics_path=metrics_path,
        )
        node.attach_transport(self.hub.register(pid, node.handle_message))
        self.nodes[pid] = node
        node.start()
        return node

    def kill(self, pid):
        self.hub.unregister(pid)
        del self.nodes[pid]

    def pump(self, seconds):
        for _ in range(int(seconds * 10)):
            self.scheduler.advance(0.1)

    def commit(self, count, prefix="v"):
        ids = [
            self.client.set(f"k{i % 8}", f"{prefix}{i}") for i in range(count)
        ]
        self.pump(8)
        return ids

    def digests(self):
        return {
            pid: service_digest(node.process.slotlog.store, node.process.slotlog.executed)
            for pid, node in sorted(self.nodes.items())
        }


class TestLoopbackDeployment:
    def test_commits_workload_exactly_once(self):
        deployment = Deployment(seed=3)
        deployment.commit(30)
        client = deployment.client
        assert len(client.completed) == 30
        committed = {
            node.process.slotlog.committed_commands
            for node in deployment.nodes.values()
        }
        assert committed == {30}
        assert len(set(deployment.digests().values())) == 1

    def test_quorum_read_returns_committed_value(self):
        deployment = Deployment(seed=4)
        client = deployment.client
        client.set("answer", "42")
        deployment.pump(5)
        req_id = client.get("answer")
        deployment.pump(1)
        assert client.finished[req_id].result == (True, "42")
        missing = client.get("never-written")
        deployment.pump(1)
        assert client.finished[missing].result == (False, None)

    def test_status_probe_reports_all_replicas(self):
        deployment = Deployment(seed=5)
        deployment.commit(8)
        req_id = deployment.client.status()
        deployment.pump(1)
        statuses = deployment.client.finished[req_id].result
        assert set(statuses) == {0, 1, 2, 3}
        assert {status.committed for status in statuses.values()} == {8}
        assert len({status.digest for status in statuses.values()}) == 1

    def test_kill_and_rejoin_via_certified_transfer(self):
        deployment = Deployment(seed=6)
        deployment.commit(16, prefix="a")
        deployment.kill(2)
        deployment.commit(16, prefix="b")
        rejoined = deployment.up(2, join=True)
        deployment.pump(10)
        deployment.commit(8, prefix="c")
        deployment.pump(10)
        assert len(deployment.client.completed) == 40
        assert len(set(deployment.digests().values())) == 1
        assert rejoined.process.slotlog.committed_commands == 40
        assert len(rejoined.process.state_transfers_completed) >= 1
        assert rejoined.process.suffix_rejections == 0

    def test_metrics_export_is_a_valid_artifact(self, tmp_path):
        deployment = Deployment(seed=7)
        target = tmp_path / "node-0.jsonl"
        deployment.kill(0)
        deployment.up(0, metrics_path=target)
        deployment.commit(8)
        deployment.pump(3)  # past metrics_interval
        artifact = read_run_jsonl(target)
        assert artifact.meta["runtime"] == "net"
        assert artifact.meta["node"] == 0
        modules = set(artifact.metrics.totals_by_module())
        assert "net" in modules

    def test_node_guards_its_contract(self):
        deployment = Deployment(seed=8)
        with pytest.raises(ConfigurationError):
            NetNode(deployment.genesis, 9, deployment.scheduler)
        bare = NetNode(deployment.genesis, 1, ManualScheduler())
        with pytest.raises(ConfigurationError):
            bare.start()  # no transport attached
        with pytest.raises(TransportError):
            deployment.hub.register(1, lambda src, message: None)


class TestDrainOrdering:
    """Regression: the scheduler-deferred drain keeps broadcasts atomic.

    ``LoopbackHub.submit`` defers delivery to a zero-delay drain timer
    instead of dispatching synchronously. The observable contract — the
    reason the protocol is safe over this fabric — is that a broadcast
    enqueues *every* copy before any destination's handler runs, so a
    receiver can never observe a reaction to a message (a CURRENT) ahead
    of the message that caused it (its sender's INIT). A synchronous
    drain regression would let the first recipient's cascade overtake
    the second copy; these tests pin the exact order so that refactor
    shows up as a diff, not a heisenbug.
    """

    def _wired_hub(self, n=3):
        scheduler = ManualScheduler()
        hub = LoopbackHub(scheduler)
        log: list[tuple[int, int, str]] = []  # (src, dst, payload)
        transports = {}

        def make_handler(pid):
            def handler(src, message):
                log.append((src, pid, message))
                # INIT triggers an immediate broadcast reaction: the
                # cascade that a synchronous drain would let overtake
                # the original broadcast's remaining copies.
                if message == "init-0" and pid == 1:
                    for dst in range(n):
                        if dst != pid:
                            transports[pid].send(dst, "current-1")
            return handler

        for pid in range(n):
            transports[pid] = hub.register(pid, make_handler(pid))
        return scheduler, hub, transports, log

    def test_receiver_never_sees_the_reaction_before_its_cause(self):
        scheduler, hub, transports, log = self._wired_hub()
        # Node 0 broadcasts INIT; node 1 reacts with a CURRENT broadcast.
        transports[0].send(1, "init-0")
        transports[0].send(2, "init-0")
        scheduler.advance(0.0)
        seen_at_2 = [payload for src, dst, payload in log if dst == 2]
        assert seen_at_2.index("init-0") < seen_at_2.index("current-1"), (
            "node 2 observed node 1's CURRENT before the INIT that "
            f"caused it: {seen_at_2}"
        )

    def test_exact_drain_trace_is_pinned(self):
        scheduler, hub, transports, log = self._wired_hub()
        transports[0].send(1, "init-0")
        transports[0].send(2, "init-0")
        transports[2].send(0, "init-2")
        scheduler.advance(0.0)
        # FIFO over enqueue order: the whole first broadcast, then the
        # unrelated send, then node 1's reaction broadcast (enqueued
        # while draining, delivered by the same iterative drain).
        assert log == [
            (0, 1, "init-0"),
            (0, 2, "init-0"),
            (2, 0, "init-2"),
            (1, 0, "current-1"),
            (1, 2, "current-1"),
        ]
        assert hub.frames_delivered == 5

    def test_trace_is_identical_across_runs(self):
        def run():
            scheduler, hub, transports, log = self._wired_hub()
            transports[0].send(1, "init-0")
            transports[0].send(2, "init-0")
            transports[2].send(0, "init-2")
            scheduler.advance(0.0)
            return log

        assert run() == run()


class TestLinkPolicy:
    """The hub's one point of variation: ``link(now, src, dst, payload)``."""

    @staticmethod
    def _hub(link):
        scheduler = ManualScheduler()
        hub = LoopbackHub(scheduler, link)
        log: list[tuple[int, str, float]] = []
        hub.register(1, lambda src, msg: log.append((src, msg, scheduler.now)))
        return scheduler, hub, log

    def test_verdict_vocabulary(self):
        verdicts = {
            "pass": None,
            "drop": [],
            "dup": [("dup", 0.0), ("dup", 0.0)],
            "late": [("late", 0.5)],
        }
        scheduler, hub, log = self._hub(
            lambda now, src, dst, payload: verdicts[payload]
        )
        for payload in ("late", "drop", "dup", "pass"):
            hub.submit(0, 1, payload)
        scheduler.advance(1.0)
        assert log == [
            (0, "dup", 0.0),
            (0, "dup", 0.0),
            (0, "pass", 0.0),
            (0, "late", 0.5),
        ]
        assert (hub.frames_delivered, hub.frames_rejected) == (4, 0)

    def test_an_unencodable_copy_is_counted_and_its_sibling_delivered(self):
        # A corrupting policy may emit a copy the codec refuses; that
        # costs exactly that copy, whichever position it holds.
        scheduler, hub, log = self._hub(
            lambda now, src, dst, payload: [(object(), 0.0), (payload, 0.1)]
        )
        hub.submit(0, 1, "good")
        scheduler.advance(1.0)
        assert log == [(0, "good", 0.1)]
        assert (hub.frames_delivered, hub.frames_rejected) == (1, 1)
