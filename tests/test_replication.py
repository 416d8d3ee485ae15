"""Integration tests: BFT state-machine replication over Vector Consensus.

The replicated log runs as the service runs it (``tests.helpers.
LOG_SERVICE``): closed-loop clients, one request per proposal, one slot
open at a time, no checkpoint inside the run.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings, strategies as st

from repro.byzantine.transformed_attacks import (
    TBadSignatureAttacker,
    TCorruptVectorAttacker,
    TForgedDecideAttacker,
)
from repro.crypto.encoding import canonical_bytes
from repro.errors import EncodingError
from repro.replication import kvstore
from repro.replication.kvstore import Command, KeyValueStore, materialise
from repro.sim.network import UniformDelay

from tests.helpers import (
    LOG_SERVICE,
    attack_engine,
    correct_logs,
    log_converged,
    log_service,
)

TOTAL = LOG_SERVICE["n_clients"] * LOG_SERVICE["requests_per_client"]
corrupt_engine = attack_engine(TCorruptVectorAttacker)


def run(system, max_time=4_000.0):
    system.run(max_time=max_time)
    return system


class TestKeyValueStore:
    def test_set_and_get(self):
        store = KeyValueStore()
        store.apply(Command("set", "a", 1))
        assert store.get("a") == 1
        assert len(store) == 1

    def test_del(self):
        store = KeyValueStore()
        store.apply(Command("set", "a", 1))
        store.apply(Command("del", "a"))
        assert store.get("a") is None

    def test_garbage_commands_ignored_deterministically(self):
        store = KeyValueStore()
        store.apply("<poison>")
        store.apply(42)
        assert store.snapshot() == {}
        assert store.applied == 2

    def test_a_key_that_is_not_a_str_is_ignored_deterministically(self):
        # An authenticated client can name any key; one that does not
        # sort among the str keys would break every later digest.
        clean = KeyValueStore().apply_all([Command("set", "x", 1)])
        dirty = KeyValueStore().apply_all(
            [Command("set", "x", 1), Command("set", 5, "v"), Command("del", ("t",))]
        )
        assert dirty.snapshot() == {"x": 1} and dirty.applied == 3
        assert dirty.digest() == clean.digest()

    def test_materialise(self):
        log = [Command("set", "x", 1), Command("set", "x", 2)]
        assert materialise(log) == {"x": 2}

    def test_digest_is_content_hash(self):
        a = KeyValueStore().apply_all(
            [Command("set", "x", 1), Command("set", "y", 2)]
        )
        b = KeyValueStore().apply_all(
            [Command("set", "y", 2), Command("set", "x", 1)]
        )
        # Order-independent: equal contents hash equally.
        assert a.digest() == b.digest()
        a.apply(Command("set", "x", 3))
        assert a.digest() != b.digest()

    def test_digest_ignores_unknown_commands_deterministically(self):
        # A Byzantine proposer's garbage must leave every correct
        # replica's digest identical — ignored is ignored everywhere.
        clean = KeyValueStore().apply_all([Command("set", "x", 1)])
        dirty = KeyValueStore().apply_all(
            [Command("set", "x", 1), "<poison>", 42, ("weird", "tuple")]
        )
        assert clean.digest() == dirty.digest()
        assert dirty.applied == 4

    def test_digest_of_uncanonical_value_is_deterministic(self):
        # Values outside the canonical vocabulary fall back to repr.
        a = KeyValueStore().apply_all([Command("set", "x", {"a", "b"})])
        b = KeyValueStore().apply_all([Command("set", "x", {"a", "b"})])
        assert a.digest() == b.digest()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["set", "del"]),
                st.sampled_from(["a", "b", "c", "d", "e"]),
                st.one_of(st.integers(), st.text(max_size=3), st.just({1})),
            ),
            max_size=30,
        )
    )
    def test_digest_hashes_the_sorted_entries(self, commands):
        # The kept encodings give the bytes of the documented formula:
        # each sorted key's canonical bytes, then its value's (repr's).
        store = KeyValueStore().apply_all(Command(*c) for c in commands)
        expected = hashlib.sha256()
        for key in sorted(store.snapshot()):
            value = store.get(key)
            expected.update(canonical_bytes(key))
            try:
                expected.update(canonical_bytes(value))
            except EncodingError:
                expected.update(canonical_bytes(repr(value)))
        assert store.digest() == expected.hexdigest()
        restored = KeyValueStore().restore(store.snapshot(), store.applied)
        assert restored.digest() == store.digest()

    def test_a_digest_encodes_as_much_at_ten_thousand_keys(self, monkeypatch):
        stores = {
            size: KeyValueStore().apply_all(
                Command("set", f"k{i}", i) for i in range(size)
            )
            for size in (10**2, 10**4)
        }
        calls = {size: 0 for size in stores}
        for size, store in stores.items():
            def counting(value, size=size):
                calls[size] += 1
                return canonical_bytes(value)

            with monkeypatch.context() as patch:
                patch.setattr(kvstore, "canonical_bytes", counting)
                store.digest()
        assert calls[10**4] == calls[10**2]

    def test_snapshot_restore_round_trip(self):
        original = KeyValueStore().apply_all(
            [Command("set", "x", 1), Command("set", "y", 2), Command("del", "y")]
        )
        restored = KeyValueStore().restore(
            original.snapshot(), applied=original.applied
        )
        assert restored.snapshot() == original.snapshot()
        assert restored.digest() == original.digest()
        assert restored.applied == original.applied
        # The copy is deep enough: mutating one store leaves the other.
        restored.apply(Command("set", "z", 3))
        assert original.get("z") is None




class TestReplicatedLog:
    def test_single_slot_converges(self):
        system = run(log_service(seed=1, n_clients=1, requests_per_client=1))
        assert log_converged(system)
        assert {log.next_apply for log in correct_logs(system)} == {1}

    def test_multi_slot_converges(self):
        system = run(log_service(seed=2))
        assert log_converged(system)
        applied = {log.next_apply for log in correct_logs(system)}
        # One request per proposal: at most n requests per slot.
        assert len(applied) == 1 and applied.pop() >= TOTAL // 4

    def test_logs_identical_across_replicas(self):
        system = run(log_service(seed=3))
        logs = [log.log for log in correct_logs(system)]
        assert len(logs[0]) == TOTAL
        assert all(log == logs[0] for log in logs)

    def test_stores_identical_across_replicas(self):
        system = run(log_service(seed=4))
        stores = [
            materialise(entry.command for _, _, entry in log.log)
            for log in correct_logs(system)
        ]
        assert stores[0] and all(store == stores[0] for store in stores)
        assert all(log.store.snapshot() == stores[0] for log in correct_logs(system))

    def test_at_least_once_reproposal(self):
        # A batch that loses its slot's INIT race is proposed again.
        system = run(log_service(seed=5, delay=UniformDelay(0.1, 2.0), window=2))
        assert system.world.metrics.counter_total("service", "batches_lost") > 0
        assert log_converged(system)
        committed = {entry.ident for _, _, entry in correct_logs(system)[0].log}
        assert committed == {
            (client.pid, req_id) for client in system.clients for req_id in client.completed
        }
        assert len(committed) == TOTAL

    def test_slot_key_domain_separation(self):
        # Engines of different slots must not share signature domains.
        system = run(log_service(seed=6))
        replica = system.replicas[0]
        slot0 = replica.engines[0]
        slot1 = replica.engines[1]
        init0 = next(iter(slot0.est_cert))
        assert slot0.authority.signature_valid(init0)
        assert not slot1.authority.signature_valid(init0)


class TestReplicationUnderByzantineReplica:
    def test_corrupting_replica_does_not_diverge_the_log(self):
        system = run(log_service(seed=7, byzantine={3: corrupt_engine}))
        assert log_converged(system)
        stores = [log.store.snapshot() for log in correct_logs(system)]
        assert all(store == stores[0] for store in stores)

    def test_forged_decides_do_not_commit(self):
        # The attacker's own log follows its fabricated vectors, so it
        # never executes what it holds and keeps opening slots: stop at
        # a horizon well past the clients' last reply.
        system = run(
            log_service(seed=8, byzantine={2: attack_engine(TForgedDecideAttacker)}),
            max_time=200.0,
        )
        assert log_converged(system)
        # The fabricated vectors' entries are no requests: none reached a
        # correct replica's log, and every request did.
        metrics = system.world.metrics
        for pid in system.correct_pids:
            assert metrics.counter("service", "foreign_entries", pid=pid) == 0
        for log in correct_logs(system):
            assert all(
                isinstance(entry.command, Command) for _, _, entry in log.log
            )
            assert len(log.executed) == TOTAL

    def test_attacker_convicted_across_slots(self):
        # Each slot's engine convicts the attacker itself and records it:
        # one declaration per slot it spoke in, at every correct replica.
        system = run(
            log_service(seed=9, byzantine={3: attack_engine(TBadSignatureAttacker)})
        )
        assert log_converged(system)
        for pid in system.correct_pids:
            declared = [
                event
                for event in system.world.trace.of_kind("declare_faulty")
                if event.process == pid and event.detail["target"] == 3
            ]
            assert len(declared) > 1

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=20_000))
    def test_convergence_across_random_schedules(self, seed):
        system = run(
            log_service(
                seed=seed,
                byzantine={3: corrupt_engine},
                delay=UniformDelay(0.1, 2.0),
            ),
            max_time=2_000.0,
        )
        assert log_converged(system)
