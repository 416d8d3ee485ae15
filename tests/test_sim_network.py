"""Unit and property tests: the reliable FIFO network and its link faults."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, NetworkError
from repro.observability.trace import Trace
from repro.process import SeededRng
from repro.sim.network import (
    ExponentialDelay,
    FixedDelay,
    LinkModel,
    Network,
    Partition,
    TargetedSlowdown,
    UniformDelay,
)
from repro.sim.scheduler import Scheduler


def make_network(delay_model=None, n=3, seed=0, link=None, metrics=None):
    scheduler = Scheduler(seed=seed)
    trace = Trace()
    network = Network(
        scheduler, trace, delay_model=delay_model, link=link,
        metrics=metrics,
    )
    inboxes: dict[int, list] = {pid: [] for pid in range(n)}
    for pid in range(n):
        network.register(pid, lambda src, msg, pid=pid: inboxes[pid].append((src, msg)))
    return scheduler, network, inboxes


class TestDelayModels:
    def test_fixed_delay(self):
        rng = SeededRng(0)
        assert FixedDelay(2.5).sample(rng, 0, 1) == 2.5

    def test_fixed_rejects_negative(self):
        with pytest.raises(NetworkError):
            FixedDelay(-1.0)

    def test_uniform_bounds(self):
        rng = SeededRng(0)
        model = UniformDelay(1.0, 2.0)
        for _ in range(100):
            assert 1.0 <= model.sample(rng, 0, 1) <= 2.0

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(NetworkError):
            UniformDelay(3.0, 2.0)

    def test_exponential_cap(self):
        rng = SeededRng(0)
        model = ExponentialDelay(mean=100.0, base=0.1, cap=5.0)
        for _ in range(200):
            assert 0.1 <= model.sample(rng, 0, 1) <= 5.0

    def test_exponential_rejects_bad_params(self):
        with pytest.raises(NetworkError):
            ExponentialDelay(mean=0.0)

    def test_targeted_slowdown_dilates_only_targets(self):
        rng = SeededRng(0)
        model = TargetedSlowdown(FixedDelay(1.0), slow={2}, factor=10.0)
        assert model.sample(rng, 0, 1) == 1.0
        assert model.sample(rng, 0, 2) == 10.0
        assert model.sample(rng, 2, 0) == 10.0

    def test_targeted_slowdown_rejects_factor_below_one(self):
        with pytest.raises(NetworkError):
            TargetedSlowdown(FixedDelay(1.0), slow={0}, factor=0.5)


class TestNetwork:
    def test_delivers_messages(self):
        scheduler, network, inboxes = make_network()
        network.send(0, 1, "hello")
        scheduler.run()
        assert inboxes[1] == [(0, "hello")]

    def test_self_channel_works(self):
        scheduler, network, inboxes = make_network()
        network.send(0, 0, "loopback")
        scheduler.run()
        assert inboxes[0] == [(0, "loopback")]

    def test_reliability_no_loss_no_duplication(self):
        scheduler, network, inboxes = make_network()
        for i in range(50):
            network.send(0, 1, i)
        scheduler.run()
        assert [msg for _, msg in inboxes[1]] == list(range(50))
        assert network.messages_sent == network.messages_delivered == 50

    def test_unknown_destination_rejected(self):
        scheduler, network, _ = make_network()
        with pytest.raises(NetworkError):
            network.send(0, 99, "x")

    def test_unknown_source_rejected(self):
        scheduler, network, _ = make_network()
        with pytest.raises(NetworkError):
            network.send(99, 0, "x")

    def test_double_registration_rejected(self):
        scheduler, network, _ = make_network()
        with pytest.raises(NetworkError):
            network.register(0, lambda src, msg: None)

    def test_trace_records_send_and_deliver(self):
        scheduler, network, _ = make_network()
        network.send(0, 1, "traced")
        scheduler.run()
        trace = network._trace
        assert trace.count("send") == 1
        assert trace.count("deliver") == 1
        assert trace.first("deliver").detail["payload"] == "traced"

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=2, max_value=40),
    )
    def test_fifo_property_per_channel(self, seed, count):
        """FIFO holds for every channel even under wide random delays."""
        scheduler, network, inboxes = make_network(
            delay_model=UniformDelay(0.0, 10.0), seed=seed
        )
        for i in range(count):
            network.send(0, 1, i)
            network.send(2, 1, 1000 + i)
        scheduler.run()
        from_p0 = [msg for src, msg in inboxes[1] if src == 0]
        from_p2 = [msg for src, msg in inboxes[1] if src == 2]
        assert from_p0 == list(range(count))
        assert from_p2 == [1000 + i for i in range(count)]

    def test_messages_dropped_and_duplicated_default_zero(self):
        scheduler, network, _ = make_network()
        network.send(0, 1, "x")
        scheduler.run()
        assert network.messages_dropped == 0
        assert network.messages_duplicated == 0
        assert network.messages_delivered == 1

    def test_interleaving_across_channels_may_differ_from_send_order(self):
        # Not a FIFO violation: ordering is per-channel only. This test
        # documents that cross-channel reordering does happen.
        observed_orders = set()
        for seed in range(30):
            scheduler, network, inboxes = make_network(
                delay_model=UniformDelay(0.0, 5.0), seed=seed
            )
            network.send(0, 1, "a")
            network.send(2, 1, "b")
            scheduler.run()
            observed_orders.add(tuple(msg for _, msg in inboxes[1]))
        assert ("a", "b") in observed_orders
        assert ("b", "a") in observed_orders


class TestLinkModel:
    def test_probabilities_validated(self):
        with pytest.raises(ConfigurationError):
            LinkModel(loss=1.0, seed=0)
        with pytest.raises(ConfigurationError):
            LinkModel(duplication=-0.1, seed=0)
        with pytest.raises(ConfigurationError):
            LinkModel(reorder=2.0, seed=0)
        with pytest.raises(ConfigurationError):
            LinkModel(reorder_spread=0.0, seed=0)

    def test_faultless_detection(self):
        assert LinkModel(seed=0).faultless
        assert not LinkModel(loss=0.1, seed=0).faultless
        assert not LinkModel(
            partitions=(Partition(1.0, 2.0, ((0,), (1,))),), seed=0
        ).faultless

    def test_partition_window_validated(self):
        with pytest.raises(ConfigurationError):
            Partition(start=5.0, heal=5.0, groups=((0,), (1,)))
        with pytest.raises(ConfigurationError):
            Partition(start=-1.0, heal=2.0, groups=((0,), (1,)))
        with pytest.raises(ConfigurationError):
            Partition(start=0.0, heal=1.0, groups=((0, 1),))
        with pytest.raises(ConfigurationError):
            Partition(start=0.0, heal=1.0, groups=((0, 1), (1, 2)))
        with pytest.raises(ConfigurationError):
            Partition(start=0.0, heal=1.0, groups=((0,), ()))

    def test_partition_severs_only_cross_group_in_window(self):
        partition = Partition(start=10.0, heal=20.0, groups=((0, 1), (2, 3)))
        assert partition.severs(15.0, 0, 2)
        assert partition.severs(10.0, 3, 1)
        assert not partition.severs(15.0, 0, 1)  # same side
        assert not partition.severs(9.9, 0, 2)  # before the cut
        assert not partition.severs(20.0, 0, 2)  # healed
        assert not partition.severs(15.0, 0, 4)  # pid outside every group

    def test_loss_drops_messages_and_counts_them(self):
        model = LinkModel(loss=0.5, seed=3)
        scheduler, network, inboxes = make_network(link=model, seed=3)
        for i in range(100):
            network.send(0, 1, i)
        scheduler.run()
        delivered = len(inboxes[1])
        assert delivered < 100
        assert network.messages_dropped == 100 - delivered
        assert network.messages_delivered == delivered
        assert network._trace.count("link-drop") == network.messages_dropped
        assert network._trace.first("link-drop").detail["reason"] == "link"

    def test_duplication_delivers_extra_copies(self):
        model = LinkModel(duplication=0.5, seed=3)
        scheduler, network, inboxes = make_network(link=model, seed=3)
        for i in range(60):
            network.send(0, 1, i)
        scheduler.run()
        assert network.messages_duplicated > 0
        assert len(inboxes[1]) == 60 + network.messages_duplicated
        # First-copy accounting stays exact despite the duplicates.
        assert network.messages_delivered == 60

    def test_partition_drops_cross_group_then_heals(self):
        model = LinkModel(
            partitions=(Partition(start=0.0, heal=50.0, groups=((0,), (1,))),),
            seed=0,
        )
        scheduler, network, inboxes = make_network(
            delay_model=FixedDelay(1.0), link=model
        )
        network.send(0, 1, "cut")  # t=0: severed
        network.send(0, 2, "side")  # 2 is in no group: unaffected
        scheduler.schedule_at(60.0, "probe", lambda: network.send(0, 1, "healed"))
        scheduler.run()
        assert inboxes[1] == [(0, "healed")]
        assert inboxes[2] == [(0, "side")]
        assert network._trace.first("link-drop").detail["reason"] == "partition"
        assert network._trace.count("partition-start") == 1
        assert network._trace.count("partition-heal") == 1

    def test_self_channel_never_faulted(self):
        model = LinkModel(loss=0.99, duplication=0.5, seed=0)
        scheduler, network, inboxes = make_network(link=model)
        for i in range(20):
            network.send(1, 1, i)
        scheduler.run()
        assert [msg for _, msg in inboxes[1]] == list(range(20))
        assert network.messages_dropped == 0

    def test_reorder_can_break_fifo_but_loses_nothing(self):
        broke_fifo = False
        for seed in range(10):
            model = LinkModel(reorder=0.3, reorder_spread=20.0, seed=seed)
            scheduler, network, inboxes = make_network(
                delay_model=FixedDelay(1.0), link=model, seed=seed
            )
            for i in range(40):
                network.send(0, 1, i)
            scheduler.run()
            got = [msg for _, msg in inboxes[1]]
            assert sorted(got) == list(range(40))  # nothing lost
            if got != list(range(40)):
                broke_fifo = True
        assert broke_fifo

    def test_link_faults_are_deterministic_per_seed(self):
        def run(seed):
            model = LinkModel(loss=0.3, duplication=0.2, reorder=0.1, seed=seed)
            scheduler, network, inboxes = make_network(link=model, seed=seed)
            for i in range(80):
                network.send(0, 1, i)
            scheduler.run()
            return (
                tuple(inboxes[1]),
                network.messages_dropped,
                network.messages_duplicated,
            )

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_per_link_metrics_recorded(self):
        from repro.observability.registry import MODULE_NETWORK, MetricsRegistry

        metrics = MetricsRegistry()
        model = LinkModel(loss=0.5, duplication=0.4, seed=1)
        scheduler, network, _ = make_network(
            link=model, seed=1, metrics=metrics
        )
        for i in range(80):
            network.send(0, 1, i)
        scheduler.run()
        assert metrics.counter_total(MODULE_NETWORK, "drop[0->1]") == \
            network.messages_dropped
        assert metrics.counter_total(MODULE_NETWORK, "dup[0->1]") == \
            network.messages_duplicated
        assert network.messages_dropped > 0 and network.messages_duplicated > 0
