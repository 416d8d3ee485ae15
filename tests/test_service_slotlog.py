"""Tests: the slot log core (events in, intents out) and the service on it.

``TestSlotLogCore`` drives :class:`~repro.service.slotlog.SlotLog` with
events only — no world, no engine, no timer. ``TestReplicatedService``
and ``TestHostileIngress`` run the whole service (``tests.helpers.
LOG_SERVICE``); the latter sends what no correct replica sends: slot
numbers that are not slots, and signed bodies without an identity field.
"""

from __future__ import annotations

import ast
import gc
import hashlib
import weakref
from pathlib import Path

import pytest

import repro.crypto.encoding as encoding
from repro.core.certificates import EMPTY_CERTIFICATE, SignedMessage
from repro.crypto.signatures import Signature
from repro.errors import EncodingError
from repro.messages.consensus import NULL, Init
from repro.net.genesis import Genesis
from repro.net.loopback import TWIN_KNOBS, LoopbackCluster, fixed_addresses
from repro.observability.registry import MetricsRegistry
from repro.replication.kvstore import Command
from repro.service.config import ServiceConfig
from repro.service.messages import ClientRequest, SlotEnvelope
from repro.service.slotlog import (
    NOOP,
    ArmBatchTimer,
    CheckpointDue,
    Commit,
    Open,
    Reply,
    SlotLog,
)
from repro.sim.network import FixedDelay, LinkModel

from tests.helpers import LOG_SERVICE, Ops, log_converged, log_service

N = 4
CLIENT = N  # the first pid above the replicas

def core(pid=0, **knobs):
    config = ServiceConfig(**{**LOG_SERVICE, **knobs})
    registry = MetricsRegistry()
    return SlotLog(config, pid, registry.scope("service", pid)), registry


def request(req_id, client=CLIENT, key=None):
    return ClientRequest(client, req_id, Command("set", key or f"k{req_id}", req_id))


def of(kind, intents):
    return [intent for intent in intents if isinstance(intent, kind)]


class TestSlotLogCore:
    def test_the_seat_moves_past_a_null_seat_at_the_next_decision(self):
        log, _ = core(pid=2)
        held = request(1)  # rotation start (4 + 1) mod 4 = seat 1
        assert log.request(CLIENT, held) == [Open(0, NOOP), ArmBatchTimer()]
        intents = log.decide(0, (NOOP, NULL, NOOP, NOOP))  # seat 1 was silent
        # Released at once, and the next seat (this replica) proposes it.
        assert of(Open, intents) == [Open(1, (held,))]
        assert log._proposer(held) == 2

    def test_passed_over_requests_count_toward_no_size_trigger(self):
        log, _ = core(pid=0, batch_size=3)
        for req_id in (1, 5, 9):  # all seated at replica 1
            log.request(CLIENT, request(req_id))
        assert log.open_slots() == 1
        # Seat 1 proposed, just not these: they are passed over, not
        # pending again, so the decision opens no slot for them.
        intents = log.decide(0, (NOOP, NOOP, NOOP, NOOP))
        assert of(Open, intents) == []
        assert not log.pending and len(log._passed) == 3
        # Nor does this replica's batch timer: it proposes none of them.
        assert of(Open, log.batch_timer()) == []
        # Their seat's timer does open one slot.
        seat, _ = core(pid=1, batch_size=3)
        held = [request(req_id) for req_id in (1, 5, 9)]
        for each in held:
            seat.request(CLIENT, each)
        seat.decide(0, (NOOP, NOOP, NOOP, NOOP))
        assert of(Open, seat.batch_timer()) == [Open(1, tuple(held))]

    def test_decisions_for_slots_2_1_0_apply_in_slot_order(self):
        log, _ = core()
        vectors = {
            slot: (request(slot),) + (NULL,) * (N - 1) for slot in range(3)
        }
        assert log.decide(2, vectors[2]) == ()
        assert log.decide(1, vectors[1]) == ()
        assert log.next_apply == 0 and log.log == []
        intents = log.decide(0, vectors[0])
        assert [commit.slot for commit in of(Commit, intents)] == [0, 1, 2]
        assert [reply.slot for reply in of(Reply, intents)] == [0, 1, 2]
        assert [(slot, entry.req_id) for slot, _, entry in log.log] == [
            (0, 0), (1, 1), (2, 2),
        ]
        assert log.next_apply == 3

    def test_a_duplicate_decision_is_idempotent(self):
        log, _ = core()
        vector = (request(1),) + (NULL,) * (N - 1)
        assert of(Commit, log.decide(0, vector)) == [Commit(0, vector, 1)]
        applied, entries = log.store.applied, list(log.log)
        assert log.decide(0, vector) == ()
        assert log.decide(0, (request(2),) + (NULL,) * (N - 1)) == ()
        assert (log.store.applied, log.log) == (applied, entries)

    def test_one_request_carried_by_two_batches_applies_once(self):
        log, registry = core()
        twice = request(1)
        intents = log.decide(0, ((twice,), (twice,), NOOP, NULL))
        assert of(Commit, intents)[0].commands == 1
        assert of(Reply, intents) == [Reply(CLIENT, 1, 0)]
        assert log.executed == {twice.ident} and log.store.applied == 1
        assert len(log.log) == 1
        # A resubmission now is answered from the executed set.
        assert log.request(CLIENT, twice) == [Reply(CLIENT, 1, -1)]
        assert registry.counter_total("service", "commands_committed") == 1

    def test_a_non_client_sender_is_refused(self):
        log, registry = core()
        relayed = request(1)
        assert log.request(2, relayed) == ()  # a replica relaying it
        assert log.request(CLIENT + 1, relayed) == ()  # another client
        posing = ClientRequest(1, 1, Command("set", "k", "v"))
        assert log.request(1, posing) == ()  # a replica posing as a client
        assert not log.pending and not log._attempts
        assert registry.counter_total("service", "requests_rejected") == 3

    def test_a_command_whose_key_is_not_a_str_is_refused(self):
        log, registry = core()
        odd = ClientRequest(CLIENT, 1, Command("set", 5, "v"))
        assert log.request(CLIENT, odd) == ()
        assert not log.pending and not log._attempts
        assert registry.counter_total("service", "requests_rejected") == 1

    def test_a_decided_request_with_an_unorderable_id_is_a_foreign_entry(self):
        # A Byzantine proposer's INIT can carry a request whose id does
        # not sort among the (int, int) ids: every correct replica
        # applies it as a foreign entry and keeps checkpointing.
        log, registry = core(pid=0, checkpoint_interval=2)
        good = request(1)
        odd = ClientRequest("mallory", 1, Command("set", "m", 1))
        log.decide(0, ((good,), (odd,), NOOP, NOOP))
        intents = log.decide(1, (NOOP,) * N)
        (due,) = of(CheckpointDue, intents)
        assert due.count == 2 and due.state[1] == (good.ident,)
        assert log.executed == {good.ident} and log.store.applied == 2
        assert registry.counter_total("service", "foreign_entries") == 1
        assert of(Reply, intents) == []
        log.decide(2, ((request(2),), NOOP, NOOP, NOOP))
        (later,) = of(CheckpointDue, log.decide(3, (NOOP,) * N))
        assert later.state[1] == (good.ident, request(2).ident)

    @staticmethod
    def encodes_per_checkpoint(monkeypatch, count):
        """``_encode`` calls of the checkpoint after ``count`` applied ids
        (one key in the store, so only the ids grow)."""
        log, _ = core(checkpoint_interval=2)
        batch = tuple(
            ClientRequest(CLIENT + n % 3, n, Command("set", "k", n))
            for n in range(count)
        )
        log.decide(0, (batch, NOOP, NOOP, NOOP))
        calls = 0
        real = encoding._encode

        def counted(value):
            nonlocal calls
            calls += 1
            return real(value)

        monkeypatch.setattr(encoding, "_encode", counted)
        (due,) = of(CheckpointDue, log.decide(1, (NOOP,) * N))
        monkeypatch.setattr(encoding, "_encode", real)
        assert len(due.state[1]) == count
        return calls

    def test_a_checkpoint_encodes_as_much_at_ten_thousand_ids(self, monkeypatch):
        small = self.encodes_per_checkpoint(monkeypatch, 10**2)
        assert self.encodes_per_checkpoint(monkeypatch, 10**4) == small

    def test_noop_proposed_when_nothing_held(self):
        log, _ = core(pid=0)
        assert log.join(0) == [Open(0, NOOP)]
        assert log.open_slots() == 1

    def test_a_slot_past_the_horizon_is_refused(self):
        log, registry = core()
        assert log.join(log._horizon()) == ()
        assert registry.counter_total("service", "slots_beyond_horizon") == 1

    def test_log_entries_tagged_with_slot_and_proposer(self):
        log, _ = core()
        first, second = request(1), request(2)
        log.decide(0, (NULL, (first,), NOOP, (second,)))
        assert log.log == [(0, 1, first), (0, 3, second)]
        assert log._silent == frozenset({0})

    def test_truncate_then_reset(self):
        log, registry = core(pid=1)
        log.request(CLIENT, request(1))  # seat 1: this replica opens slot 0
        log.decide(0, (NULL, (request(1),), NULL, NULL))
        log.truncate(1)
        assert log.log == [] and log.decided == set() and log.open_slots() == 0
        assert registry.counter_total("service", "log_entries_truncated") == 1
        log.reset()
        assert (log.next_apply, log.executed, log.store.applied) == (0, set(), 0)

    def test_the_core_imports_no_simulator_loop_or_transport(self):
        # Its own import statements; tests/test_layers.py pins what a
        # fresh interpreter loads with it.
        import repro.service.slotlog as slotlog

        tree = ast.parse(Path(slotlog.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        forbidden = ("repro.sim", "asyncio", "repro.net")
        assert imported and not [
            name
            for name in imported
            if any(name == root or name.startswith(root + ".") for root in forbidden)
        ]


def run(system, max_time=4_000.0):
    system.run(max_time=max_time)
    return system


class TestReplicatedService:
    def test_duplicating_links_do_not_break_convergence(self):
        # Behind the reliable transport, as the paper's channels assume:
        # the Figure-4 automata rightly convict a peer whose messages
        # repeat, so raw duplicating links stall the service instead.
        system = run(
            log_service(
                seed=13,
                delay=FixedDelay(0.4),
                link=LinkModel(duplication=0.3, seed=13),
                transport="reliable",
            ),
            max_time=2_000.0,
        )
        assert system.world.network.messages_duplicated > 0
        assert log_converged(system)

    def test_a_truncated_slot_engine_is_freed_without_the_cycle_collector(self):
        # Nothing a slot engine is reachable from may point back at it:
        # a truncated slot's engine, certificates and all, goes with its
        # last reference, not at the next full collection.
        system = log_service(seed=14, checkpoint_interval=2)
        replica = system.replicas[0]
        gc.disable()
        try:
            system.world.run(max_time=10.0)
            engines = [weakref.ref(engine) for engine in replica.engines.values()]
            run(system)
            assert engines and replica.base_slot > len(engines)
            assert all(engine() is None for engine in engines)
        finally:
            gc.enable()


@pytest.fixture
def twin():
    genesis = Genesis(
        name="hostile",
        seed=3,
        n_replicas=N,
        addresses=fixed_addresses(N, 47_100),
        **TWIN_KNOBS,
    )
    with LoopbackCluster(genesis) as cluster:
        yield cluster


def inject(cluster: LoopbackCluster, src: int, dst: int, payload) -> None:
    """Have replica ``src``'s transport send ``payload`` to ``dst``."""
    cluster.loop.call_soon(cluster.transports[src].send, dst, payload)


def bodiless(sender: int) -> SignedMessage:
    """A signed message whose body names no sender at all."""
    return SignedMessage(
        body=Command("set", "k", "v"),
        cert=EMPTY_CERTIFICATE,
        signature=Signature(signer=sender, mac=bytes(32)),
    )


class TestHostileIngress:
    def test_a_fractional_slot_stops_no_replica(self, twin):
        cluster = twin
        client = Ops(cluster)
        for i in range(16):
            client.set(f"k{i}", f"v{i}")
        cluster.pump(2)
        process = cluster.nodes[0].process
        inject(
            cluster, 1, 0, SlotEnvelope(slot=process.slotlog._next_open + 0.5, inner=None)
        )
        later = [client.set(f"later{i}", "x") for i in range(32)]
        cluster.pump(30)
        assert set(later) <= client.completed
        for node in cluster.nodes.values():
            log = node.process.slotlog
            slots = [*node.process.engines, *log._opened, *log.decided, *log.buffered]
            assert all(type(slot) is int for slot in slots)
        rejected = cluster.nodes[0].metrics.counter_total("service", "envelopes_rejected")
        assert rejected == 1

    def test_a_string_slot_raises_nothing_out_of_the_hub(self, twin):
        cluster = twin
        client = Ops(cluster)
        inject(cluster, 1, 0, SlotEnvelope(slot="x", inner=None))
        inject(cluster, 1, 0, SlotEnvelope(slot=True, inner=None))
        cluster.pump(1)
        ids = [client.set(f"k{i}", "v") for i in range(8)]
        cluster.pump(5)
        assert set(ids) <= client.completed
        metrics = cluster.nodes[0].metrics
        assert metrics.counter_total("service", "envelopes_rejected") == 2
        assert metrics.counter_total("net", "handler_errors") == 0

    @pytest.mark.parametrize("stale", [False, True], ids=["live", "stale"])
    def test_a_body_without_sender_is_declared(self, stale):
        # A live slot reaches its engine's signature module; a slot
        # below the stable checkpoint, the replica's stale ingress.
        system = run(log_service(seed=12, checkpoint_interval=2 if stale else 1000))
        replica = system.replicas[0]
        slot = 0 if stale else max(replica.engines)
        assert (slot < replica.base_slot) == stale
        metrics = system.world.metrics
        rejected = metrics.counter("signature", "messages_rejected", pid=0)
        replica.on_message(1, SlotEnvelope(slot, bodiless(1)))
        declared = [
            event.detail["reason"]
            for event in system.world.trace.of_kind("declare_faulty")
            if event.process == 0 and event.detail["target"] == 1
        ]
        assert declared == [
            "signature module: identity field None "
            "inconsistent with the sending channel 1"
        ]
        assert metrics.counter("signature", "messages_rejected", pid=0) == rejected + 1

    @pytest.mark.parametrize(
        "command", [5, None, ("set", "k", "v")], ids=["int", "none", "tuple"]
    )
    def test_a_request_with_no_canonical_form_is_refused_as_a_signature(
        self, twin, command
    ):
        # Replica 3 sends a "signed" INIT whose request holds no Command.
        # No receiver can canonicalise it to check the signature: the
        # signature module refuses it and declares 3, and no handler raises.
        cluster = twin
        client = Ops(cluster)
        for i in range(4):
            client.set(f"k{i}", f"v{i}")
        cluster.pump(2)
        slot = max(cluster.nodes[0].process.engines) + 1
        init = SignedMessage(
            body=Init(sender=3, value=(ClientRequest(N, 99, command),)),
            cert=EMPTY_CERTIFICATE,
            signature=Signature(signer=3, mac=bytes(32)),
        )
        for dst in (0, 1, 2):
            inject(cluster, 3, dst, SlotEnvelope(slot, init))
        cluster.pump(2)
        for pid in (0, 1, 2):
            node = cluster.nodes[pid]
            assert node.metrics.counter_total("net", "handler_errors") == 0
            declared = {
                (event.detail["target"], event.detail["reason"])
                for event in node.trace.of_kind("declare_faulty")
            }
            assert declared == {
                (3, "signature module: payload has no canonical form")
            }


#: ``canonical_bytes`` of the request below, before a request checked
#: its command's type.
PINNED_REQUEST_SHA256 = (
    "07f4e477b1fdcb79d8f3a69a5505a7528f09e81ad3ecedccd43aaebb58f4f2f6"
)


def test_a_well_typed_request_keeps_its_canonical_bytes():
    request = ClientRequest(4, 7, Command("set", "k", "v"))
    assert hashlib.sha256(encoding.canonical_bytes(request)).hexdigest() == (
        PINNED_REQUEST_SHA256
    )
    with pytest.raises(EncodingError):
        encoding.canonical_bytes(ClientRequest(4, 7, 5))
