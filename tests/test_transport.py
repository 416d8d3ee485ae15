"""The reliable-channel transport: seq/ack/retransmit over a faulty wire.

Covers the unit-level state machine (sequence numbers, cumulative acks,
retransmission backoff, duplicate suppression, FIFO reassembly, channel
abandonment) and the acceptance scenario of the robustness PR: consensus
over a lossy, partitioned wire passes its oracles behind the transport,
demonstrably fails without retransmission, and the run artifact shows
per-link fault/recovery counters.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.run_report import RunReport
from repro.campaign.runner import run_scenario
from repro.campaign.scenario import Scenario
from repro.errors import ConfigurationError
from repro.observability.registry import MODULE_TRANSPORT, MetricsRegistry
from repro.observability.trace import Trace
from repro.sim.network import FixedDelay, LinkModel, Network, Partition
from repro.sim.scheduler import Scheduler
from repro.sim.transport import AckSegment, DataSegment, ReliableTransport
from repro.sim.world import World
from repro.systems import build_transformed_system


def make_stack(link=None, n=3, seed=0, crashed=None, **transport_kwargs):
    scheduler = Scheduler(seed=seed)
    trace = Trace()
    metrics = MetricsRegistry()
    network = Network(
        scheduler,
        trace,
        delay_model=FixedDelay(1.0),
        metrics=metrics,
        link=link,
    )
    transport = ReliableTransport(
        network, scheduler, trace, metrics=metrics, crashed=crashed,
        **transport_kwargs,
    )
    inboxes: dict[int, list] = {pid: [] for pid in range(n)}
    for pid in range(n):
        transport.register(
            pid, lambda src, msg, pid=pid: inboxes[pid].append((src, msg))
        )
    return scheduler, transport, inboxes, metrics


class TestTransportUnit:
    def test_plain_delivery_unchanged(self):
        scheduler, transport, inboxes, _ = make_stack()
        for i in range(10):
            transport.send(0, 1, i)
        scheduler.run()
        assert [msg for _, msg in inboxes[1]] == list(range(10))
        assert transport.retransmissions == 0

    def test_self_channel_bypasses_framing(self):
        scheduler, transport, inboxes, _ = make_stack()
        transport.send(2, 2, "note-to-self")
        scheduler.run()
        assert inboxes[2] == [(2, "note-to-self")]

    def test_config_validated(self):
        scheduler = Scheduler(seed=0)
        trace = Trace()
        network = Network(scheduler, trace)
        for kwargs in (
            {"rto": 0.0},
            {"backoff": 1.0},
            {"max_rto": 0.5, "rto": 1.0},
            {"retry_limit": 0},
        ):
            with pytest.raises(ConfigurationError):
                ReliableTransport(network, scheduler, trace, **kwargs)

    def test_loss_recovered_by_retransmission_in_order(self):
        model = LinkModel(loss=0.4, seed=5)
        scheduler, transport, inboxes, _ = make_stack(link=model, seed=5)
        for i in range(40):
            transport.send(0, 1, i)
        scheduler.run()
        assert [msg for _, msg in inboxes[1]] == list(range(40))
        assert transport.retransmissions > 0

    def test_wire_duplicates_suppressed_exactly_once(self):
        model = LinkModel(duplication=0.6, seed=5)
        scheduler, transport, inboxes, _ = make_stack(link=model, seed=5)
        for i in range(40):
            transport.send(0, 1, i)
        scheduler.run()
        assert [msg for _, msg in inboxes[1]] == list(range(40))
        assert transport.duplicates_suppressed > 0

    def test_reordered_wire_reassembled_fifo(self):
        model = LinkModel(reorder=0.4, reorder_spread=15.0, seed=5)
        scheduler, transport, inboxes, _ = make_stack(link=model, seed=5)
        for i in range(40):
            transport.send(0, 1, i)
        scheduler.run()
        assert [msg for _, msg in inboxes[1]] == list(range(40))

    def test_everything_at_once_still_exactly_once_in_order(self):
        model = LinkModel(loss=0.25, duplication=0.25, reorder=0.2, seed=9)
        scheduler, transport, inboxes, _ = make_stack(link=model, seed=9)
        for i in range(60):
            transport.send(0, 1, i)
        scheduler.run()
        assert [msg for _, msg in inboxes[1]] == list(range(60))

    def test_no_retransmit_ablation_loses_messages(self):
        model = LinkModel(loss=0.4, seed=5)
        scheduler, transport, inboxes, _ = make_stack(
            link=model, seed=5, retransmit=False
        )
        for i in range(40):
            transport.send(0, 1, i)
        scheduler.run()
        assert not transport.retransmit_enabled
        assert transport.retransmissions == 0
        got = [msg for _, msg in inboxes[1]]
        assert got != list(range(40))  # the wire's loss goes unrepaired
        assert got == list(range(len(got)))  # but delivery stays FIFO-prefix

    def test_retransmission_survives_partition_then_heal(self):
        model = LinkModel(
            partitions=(Partition(start=0.0, heal=40.0, groups=((0,), (1,))),),
            seed=0,
        )
        scheduler, transport, inboxes, _ = make_stack(link=model)
        for i in range(5):
            transport.send(0, 1, i)
        scheduler.run()
        assert [msg for _, msg in inboxes[1]] == list(range(5))
        assert transport.retransmissions >= 5
        assert transport.channels_abandoned == 0

    def test_permanent_partition_abandons_channel_and_quiesces(self):
        # A partition longer than the retry budget: the channel gives up so
        # the world can go quiescent instead of retransmitting forever.
        model = LinkModel(
            partitions=(
                Partition(start=0.0, heal=100_000.0, groups=((0,), (1,))),
            ),
            seed=0,
        )
        scheduler, transport, inboxes, _ = make_stack(
            link=model, retry_limit=3
        )
        transport.send(0, 1, "void")
        result = scheduler.run()
        assert result.reason == "quiescent"
        assert inboxes[1] == []
        assert transport.channels_abandoned == 1

    def test_crashed_receiver_neither_acks_nor_delivers(self):
        crashed = {1}
        scheduler, transport, inboxes, _ = make_stack(
            crashed=lambda pid: pid in crashed, retry_limit=3
        )
        transport.send(0, 1, "to-the-dead")
        scheduler.run()
        assert inboxes[1] == []
        assert transport.channels_abandoned == 1

    def test_rto_backs_off_exponentially(self):
        model = LinkModel(
            partitions=(Partition(start=0.0, heal=200.0, groups=((0,), (1,))),),
            seed=0,
        )
        scheduler, transport, inboxes, _ = make_stack(
            link=model, rto=2.0, backoff=2.0, max_rto=16.0
        )
        transport.send(0, 1, "x")
        scheduler.run()
        retransmits = [
            e for e in transport._trace if e.kind == "transport-retransmit"
        ]
        rtos = [e.detail["rto"] for e in retransmits]
        assert rtos[:4] == [2.0, 4.0, 8.0, 16.0]
        assert all(rto <= 16.0 for rto in rtos)  # capped at max_rto
        assert inboxes[1] == [(0, "x")]  # heals before the retry budget ends

    def test_per_link_metrics_recorded(self):
        model = LinkModel(loss=0.4, seed=5)
        scheduler, transport, inboxes, metrics = make_stack(
            link=model, seed=5
        )
        for i in range(40):
            transport.send(0, 1, i)
        scheduler.run()
        assert metrics.counter_total(MODULE_TRANSPORT, "retransmit[0->1]") == \
            transport.retransmissions
        assert metrics.counter_total(MODULE_TRANSPORT, "ack[0->1]") > 0

    def test_segments_are_value_objects(self):
        assert DataSegment(seq=3, payload="p") == DataSegment(seq=3, payload="p")
        assert AckSegment(ack=2) != AckSegment(ack=3)


class TestWorldIntegration:
    def test_world_rejects_unknown_transport(self):
        from repro.process import Process

        with pytest.raises(ConfigurationError):
            World([Process(), Process()], transport="bogus")

    def test_transformed_consensus_survives_loss(self):
        link = LinkModel(loss=0.2, seed=1)
        system = build_transformed_system(
            ["a", "b", "c", "d"],
            seed=1,
            muteness="adaptive",
            link=link,
            transport="reliable",
        )
        system.run(max_time=3_000.0)
        assert system.all_correct_decided()
        assert len(set(system.decisions().values())) == 1
        assert system.world.network.messages_dropped > 0
        assert system.world.transport.retransmissions > 0


# The acceptance scenario of the robustness PR: per-link loss 0.2 plus one
# partition-then-heal window. Deterministic at this seed: behind the
# reliable transport the oracles pass; without retransmission they fail.
ACCEPTANCE = Scenario(
    protocol="transformed",
    n=4,
    seed=1,
    loss=0.2,
    partitions=((40.0, 120.0, "0,1|2,3"),),
    transport="reliable",
    muteness="adaptive",
)


class TestAcceptanceScenario:
    def test_consensus_survives_loss_and_partition(self):
        record = run_scenario(ACCEPTANCE)
        assert record.verdict == "pass"
        assert record.messages_dropped > 0
        assert record.retransmissions > 0

    def test_deterministic_byte_identical_record(self):
        first = run_scenario(ACCEPTANCE).to_record()
        second = run_scenario(ACCEPTANCE).to_record()
        assert first == second

    def test_no_retransmit_ablation_fails(self):
        ablated = replace(ACCEPTANCE, transport="no-retransmit")
        record = run_scenario(ablated)
        assert record.verdict == "fail"

    def test_report_shows_per_link_counters(self):
        from repro.campaign.scenario import build_scenario_system

        system = build_scenario_system(ACCEPTANCE)
        system.run(max_time=ACCEPTANCE.max_time)
        report = RunReport.from_system(system)
        health = report.link_health()
        assert health, "expected per-link counters in the report"
        # Every directed link between distinct pids saw drops or repairs.
        dropped = sum(c.get("drop", 0) for c in health.values())
        retransmitted = sum(c.get("retransmit", 0) for c in health.values())
        acked = sum(c.get("ack", 0) for c in health.values())
        assert dropped > 0 and retransmitted > 0 and acked > 0
        rendered = report.render()
        assert "link health" in rendered

    def test_report_cli_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        artifact = tmp_path / "lossy.jsonl"
        code = main(
            [
                "run",
                "--n", "4",
                "--seed", "1",
                "--loss", "0.2",
                "--partition", "40:120:0,1|2,3",
                "--transport", "reliable",
                "--muteness", "adaptive",
                "--metrics-out", str(artifact),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["report", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "link health" in out
        assert "retransmit" in out
