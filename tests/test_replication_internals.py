"""Unit tests: replicated-log internals (routing, timers, domains).

The log is the service's (``tests.helpers.LOG_SERVICE``): each replica's
slot engines run behind a :class:`~repro.service.replica.SlotEnv`, and
its :class:`~repro.service.slotlog.SlotLog` holds requests and applies
decisions.
"""

from __future__ import annotations

from repro.byzantine.transformed_attacks import TCorruptVectorAttacker
from repro.messages.consensus import NULL
from repro.replication.kvstore import Command
from repro.service.messages import ClientRequest, SlotEnvelope
from repro.service.replica import SlotEnv
from repro.service.slotlog import NOOP
from repro.sim.network import FixedDelay

from tests.helpers import attack_engine, correct_logs, log_service


def make_system(seed=0, **knobs):
    return log_service(seed=seed, delay=FixedDelay(0.4), **knobs)


def run(system):
    system.run(max_time=4_000.0)
    return system


class TestRouting:
    def test_non_envelope_traffic_ignored(self):
        system = make_system()
        system.world.start()
        replica = system.replicas[0]
        replica.on_message(1, "stray-payload")
        assert replica.slotlog.log == []
        assert replica.engines == {}

    def test_out_of_range_slots_ignored(self):
        system = make_system()
        system.world.start()
        replica = system.replicas[0]
        far = replica.slotlog._horizon()
        for slot in (far, -1, 0.5, "0", True):
            replica.on_message(1, SlotEnvelope(slot=slot, inner="whatever"))
        assert replica.engines == {}
        metrics = system.world.metrics
        assert metrics.counter("service", "slots_beyond_horizon", pid=0) == 1
        assert metrics.counter("service", "envelopes_rejected", pid=0) == 4

    def test_engines_created_lazily_per_slot(self):
        system = make_system()
        system.world.start()
        system.world.scheduler.run(max_events=len(system.replicas))  # on_start
        replica = system.replicas[0]
        assert replica.engines == {}  # no request held, no slot open
        run(system)
        assert sorted(replica.engines) == list(range(replica.slotlog.next_apply))


class TestTimers:
    def test_slot_timers_reach_their_engine(self):
        # The suspicion-poll timer of a slot engine must fire with its
        # unprefixed name inside that engine; a completed run is the
        # observable proof, plus: engines were bound to slot envs, not
        # the real one, and the env counts the replica group only.
        system = run(make_system())
        replica = system.replicas[0]
        engine = replica.engines[0]
        assert engine.decided
        assert isinstance(engine.env, SlotEnv) and engine.env.slot == 0
        assert engine.env is not replica.env
        assert engine.env.n == replica.config.n_replicas < replica.env.n


class TestCommandQueue:
    def test_noop_proposed_when_queue_empty(self):
        # A replica that holds no request of its own seat proposes NOOP.
        system = run(make_system())
        proposed = system.replicas[0].slotlog._proposed
        assert NOOP in proposed.values()
        assert any(isinstance(proposal, tuple) for proposal in proposed.values())

    def test_noops_filtered_from_command_log(self):
        system = run(make_system())
        for log in correct_logs(system):
            assert log.log
            assert all(isinstance(entry, ClientRequest) for _, _, entry in log.log)

    def test_log_entries_tagged_with_slot_and_proposer(self):
        system = run(make_system())
        replica = system.replicas[0]
        for slot, proposer, entry in replica.slotlog.log:
            assert 0 <= proposer < 4
            assert entry in replica._vector_history[slot][proposer]
            assert isinstance(entry.command, Command)


class TestDeliveryRegressions:
    def test_duplicate_envelope_delivery_is_idempotent(self):
        # Re-delivering traffic to a decided slot must not re-append.
        system = run(make_system())
        replica = system.replicas[0]
        log_before = list(replica.slotlog.log)
        applied_before = replica.slotlog.next_apply
        # A decided engine ignores duplicates; the harvest path must too.
        engine = replica.engines[0]
        assert engine.decided
        replica.on_message(
            1, SlotEnvelope(slot=0, inner="late-duplicate-garbage")
        )
        replica._harvest(0)
        replica._run(replica.slotlog.decide(0, engine.decision))
        assert replica.slotlog.log == log_before
        assert replica.slotlog.next_apply == applied_before

    def test_out_of_order_decision_applies_in_slot_order(self):
        # Slot 2 deciding before slots 0/1 must wait in the buffer; the
        # log is appended strictly in slot order regardless.
        system = make_system()
        system.world.start()
        replica = system.replicas[0]
        client = replica.config.n_replicas

        def vector(slot, key):
            request = ClientRequest(client, slot, Command("set", key, slot))
            return ((request,),) + (NULL,) * 3

        replica._run(replica.slotlog.decide(2, vector(2, "late")))
        assert replica.slotlog.log == []  # buffered: slots 0 and 1 still open
        assert replica.slotlog.next_apply == 0
        for slot in (1, 0):  # decide the rest, still out of order
            replica._run(replica.slotlog.decide(slot, vector(slot, f"s{slot}")))
        assert replica.slotlog.next_apply == 3
        log = replica.slotlog.log
        assert [entry[0] for entry in log] == [0, 1, 2]
        assert [entry[2].command.key for entry in log] == ["s0", "s1", "late"]
        commits = system.world.trace.of_kind("commit")
        assert [event.detail["slot"] for event in commits] == [0, 1, 2]


class TestSystemSurface:
    def test_correct_pids_excludes_byzantine(self):
        system = make_system(byzantine={2: attack_engine(TCorruptVectorAttacker)})
        assert system.correct_pids == frozenset({0, 1, 3})

    def test_deterministic_replay(self):
        def replay(seed):
            system = run(make_system(seed=seed))
            return [tuple(map(repr, log.log)) for log in correct_logs(system)]

        assert replay(11) == replay(11)
