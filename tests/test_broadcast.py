"""Unit and integration tests: Byzantine reliable broadcast."""

from __future__ import annotations

import pytest

from repro.broadcast.reliable import RbEcho, RbReady, RbSend, ReliableBroadcast
from repro.errors import ConfigurationError, ProtocolError
from repro.process import Process
from repro.sim.network import FixedDelay, UniformDelay
from repro.sim.world import World


class RbHost(Process):
    """Minimal process hosting one reliable-broadcast module."""

    def __init__(self, f: int):
        super().__init__()
        self.delivered: list[tuple[int, int, object]] = []
        self.rb = ReliableBroadcast(
            f=f, deliver=lambda o, t, p: self.delivered.append((o, t, p))
        )

    def bind(self, env):
        super().bind(env)
        self.rb.attach(env)

    def on_message(self, src, payload):
        self.rb.filter_message(src, payload)


class RbEquivocator(RbHost):
    """Sends different SENDs to the two halves of the system."""

    def on_start(self):
        for dst in range(self.n):
            value = "branch-a" if dst % 2 == 0 else "branch-b"
            self.send(dst, RbSend(sender=self.pid, tag=0, payload=value))


class RbSilent(RbHost):
    """Participates in echoes/readies but never originates."""


def build(n=4, f=1, seed=0, delay=None, classes=None):
    classes = classes or [RbHost] * n
    hosts = [cls(f) for cls in classes]
    world = World(hosts, seed=seed, delay_model=delay or FixedDelay(0.3))
    return world, hosts


class TestQuorumArithmetic:
    def test_quorums_for_n4_f1(self):
        world, hosts = build()
        rb = hosts[0].rb
        assert rb.echo_quorum == 3
        assert rb.ready_amplify == 2
        assert rb.ready_deliver == 3

    def test_attach_requires_n_gt_3f(self):
        hosts = [RbHost(1) for _ in range(3)]
        with pytest.raises(ConfigurationError):
            World(hosts)

    def test_use_before_attach_rejected(self):
        rb = ReliableBroadcast(f=1, deliver=lambda *a: None)
        with pytest.raises(ProtocolError):
            rb.broadcast("x")


class TestHappyPath:
    def test_broadcast_delivers_everywhere(self):
        world, hosts = build()
        world.scheduler.schedule_at(0.0, "go", lambda: hosts[0].rb.broadcast("m"))
        world.run()
        for host in hosts:
            assert host.delivered == [(0, 0, "m")]

    def test_tags_distinguish_instances(self):
        world, hosts = build()

        def go():
            hosts[0].rb.broadcast("first")
            hosts[0].rb.broadcast("second")
            hosts[1].rb.broadcast("third")

        world.scheduler.schedule_at(0.0, "go", go)
        world.run()
        for host in hosts:
            assert sorted(host.delivered) == [
                (0, 0, "first"),
                (0, 1, "second"),
                (1, 0, "third"),
            ]

    def test_no_duplicate_delivery(self):
        world, hosts = build()
        world.scheduler.schedule_at(0.0, "go", lambda: hosts[0].rb.broadcast("m"))
        world.run()
        assert all(h.rb.delivered_count == 1 for h in hosts)

    def test_filter_passes_foreign_payloads(self):
        world, hosts = build()
        assert not hosts[0].rb.filter_message(1, "not-rb-traffic")


class TestConsistencyUnderEquivocation:
    @pytest.mark.parametrize("seed", range(12))
    def test_no_two_correct_deliver_different_branches(self, seed):
        world, hosts = build(
            classes=[RbHost, RbHost, RbHost, RbEquivocator],
            seed=seed,
            delay=UniformDelay(0.1, 2.0),
        )
        world.run(max_time=200)
        values = {
            payload
            for host in hosts[:3]
            for (_o, _t, payload) in host.delivered
        }
        assert len(values) <= 1, values

    def test_totality_if_one_correct_delivers_all_do(self):
        for seed in range(12):
            world, hosts = build(
                classes=[RbHost, RbHost, RbHost, RbEquivocator],
                seed=seed,
                delay=UniformDelay(0.1, 2.0),
            )
            world.run(max_time=200)
            delivered_counts = [len(h.delivered) for h in hosts[:3]]
            assert len(set(delivered_counts)) == 1, delivered_counts


class TestFaultTolerance:
    def test_crashed_witness_does_not_block(self):
        world, hosts = build(n=4, f=1)
        world.crash_at(2, 0.0)
        world.scheduler.schedule_at(0.1, "go", lambda: hosts[0].rb.broadcast("m"))
        world.run()
        for host in (hosts[0], hosts[1], hosts[3]):
            assert host.delivered == [(0, 0, "m")]

    def test_spoofed_send_on_wrong_channel_ignored(self):
        # A SEND whose identity field does not match its channel is
        # dropped (channels are authenticated).
        world, hosts = build()

        def spoof():
            hosts[3].send(0, RbSend(sender=1, tag=0, payload="forged"))
            hosts[3].send(1, RbSend(sender=1, tag=0, payload="forged"))

        world.scheduler.schedule_at(0.0, "go", spoof)
        world.run()
        assert all(h.delivered == [] for h in hosts)

    def test_ready_amplification_completes_stragglers(self):
        # Deliver even when the origin's SEND is missing at one process:
        # f+1 READYs re-trigger READY, 2f+1 deliver.
        world, hosts = build(n=7, f=2, delay=UniformDelay(0.1, 1.0), seed=3)
        world.scheduler.schedule_at(0.0, "go", lambda: hosts[0].rb.broadcast("m"))
        world.run()
        assert all(h.delivered == [(0, 0, "m")] for h in hosts)


class TestDegenerateWorlds:
    """Regression: f=0 and single-process worlds must still deliver."""

    def test_single_process_world_delivers_to_self(self):
        world, hosts = build(n=1, f=0, classes=[RbHost])
        rb = hosts[0].rb
        assert (rb.echo_quorum, rb.ready_amplify, rb.ready_deliver) == (1, 1, 1)
        world.scheduler.schedule_at(0.0, "go", lambda: rb.broadcast("solo"))
        world.run()
        assert hosts[0].delivered == [(0, 0, "solo")]

    def test_f_zero_pair_delivers(self):
        world, hosts = build(n=2, f=0, classes=[RbHost, RbHost])
        world.scheduler.schedule_at(0.0, "go", lambda: hosts[1].rb.broadcast("m"))
        world.run()
        assert all(h.delivered == [(1, 0, "m")] for h in hosts)

    def test_f_zero_quorums_are_simple_majorities(self):
        world, hosts = build(n=3, f=0, classes=[RbHost] * 3)
        rb = hosts[0].rb
        assert rb.echo_quorum == 2
        assert rb.ready_amplify == 1
        assert rb.ready_deliver == 1


class TestDuplicateDeliveries:
    """Regression: replayed wire traffic must never double-deliver."""

    def test_replayed_ready_does_not_redeliver(self):
        world, hosts = build()
        world.scheduler.schedule_at(0.0, "go", lambda: hosts[0].rb.broadcast("m"))
        world.run()
        assert hosts[1].delivered == [(0, 0, "m")]
        replay = RbReady(sender=2, origin=0, tag=0, payload="m")
        for _ in range(3):
            assert hosts[1].rb.filter_message(2, replay)
        world.run()
        assert hosts[1].delivered == [(0, 0, "m")]
        assert hosts[1].rb.delivered_count == 1

    def test_replayed_send_does_not_reecho(self):
        world, hosts = build()
        sends = []
        world.scheduler.schedule_at(0.0, "go", lambda: hosts[0].rb.broadcast("m"))
        world.run()
        before = world.network.messages_sent
        # A duplicate SEND on the origin's own channel: the slot already
        # echoed, so no new ECHO traffic may be generated.
        hosts[1].rb.filter_message(0, RbSend(sender=0, tag=0, payload="m"))
        world.run()
        assert world.network.messages_sent == before
        del sends

    def test_duplicate_echoes_from_one_witness_count_once(self):
        world, hosts = build()
        echo = RbEcho(sender=2, origin=3, tag=7, payload="x")
        hosts[1].rb.filter_message(2, echo)
        hosts[1].rb.filter_message(2, echo)
        slot = hosts[1].rb._slots[(3, 7)]
        (witnesses,) = slot.echoes.values()
        assert witnesses == {2}
