"""Tests: the per-endpoint envelope table (repro.net.wire.EnvelopeTable).

A signed envelope crosses a replica's wire many times — alone, then in
the pool of every frame whose certificates cite it. With a table
installed the decoder steps over a v4 envelope record it has seen and
hands back the object the endpoint already holds (memoised encodings
and digests intact), and the encoder splices the pool of a broadcast's
envelope instead of re-walking it per destination — and enters what it
encodes, so a node's copy to itself is the object it signed. These tests
attack what that must never change:

* a repeat decodes to the *same* object, but one flipped byte anywhere
  in a record misses the table and — dangling as sent, or re-cited so
  that it parses — is judged by the wire, the signature and the
  certification modules exactly as under ``caching_disabled()``;
* a run over real sockets commits the same store with interning on and
  off;
* the table holds nothing the protocol has dropped (bounded memory);
* the ``MAX_DEPTH`` ceiling stays exact across a splice;
* for random envelope trees, decoding with a table equals decoding
  without one, memo for memo;
* a client request is decoded once per endpoint: its client's root frame
  and every INIT and certificate citing it yield one object, counted
  apart from envelopes.
"""

from __future__ import annotations

import asyncio
import collections
import gc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.run_report import RunReport
from repro.consensus.certification import PredicateCache, current_message_problems
from repro.core.certificates import Certificate, SignedMessage
from repro.crypto.cache import caching_disabled
from repro.crypto.encoding import canonical_bytes
from repro.messages.consensus import NULL, VCurrent
from repro.net.client import NetClient
from repro.net.clock import WallScheduler
from repro.net.cluster import make_genesis, wait_cluster_ready
from repro.net.node import NetNode
from repro.net.transport import PeerTransport
from repro.net.wire import (
    HEADER,
    MAX_DEPTH,
    EnvelopeTable,
    WireError,
    decode_frame,
    encode_frame,
    encode_payload,
)
from repro.observability.registry import MODULE_NET, MetricsRegistry
from repro.replication.kvstore import Command
from repro.service.messages import ClientRequest, SlotEnvelope

from tests.helpers import Mesh, SignedWorkbench, envelope_trees, envelopes, recited

BENCH = SignedWorkbench(4)
#: The coordinator's CURRENT (three INITs in its est_cert) ...
CURRENT = BENCH.coordinator_current()
#: ... and two relays of it: each nests CURRENT, unpruned, in its cert.
RELAYS = [BENCH.relay_current(pid, CURRENT) for pid in (1, 2)]


def nested_current(relay: SignedMessage) -> SignedMessage | None:
    """The coordinator's CURRENT inside a decoded relay, if still there."""
    if not isinstance(relay, SignedMessage) or not isinstance(relay.cert, Certificate):
        return None
    for entry in relay.cert.entries:
        if isinstance(entry, SignedMessage) and isinstance(entry.body, VCurrent):
            return entry
    return None


class TestInterning:
    def test_a_repeated_span_decodes_to_the_same_object(self):
        registry = MetricsRegistry()
        table = EnvelopeTable(registry.scope(MODULE_NET, 0))
        alone = decode_frame(encode_frame(SlotEnvelope(3, CURRENT)), table=table)
        first, second = (
            decode_frame(encode_frame(SlotEnvelope(3, relay)), table=table)
            for relay in RELAYS
        )
        assert alone.inner == CURRENT
        assert nested_current(first.inner) is alone.inner
        assert nested_current(second.inner) is alone.inner
        # CURRENT + its 3 INITs + the two relays were built; each relay's
        # frame then pooled CURRENT and the INITs again — four records
        # hashed, found and stepped over, per frame.
        assert registry.counter_total(MODULE_NET, "envelopes_interned") == 6
        assert registry.counter_total(MODULE_NET, "envelope_intern_hits") == 8
        assert len(table) == 6

    def test_what_a_node_encodes_it_decodes_to_the_object_it_holds(self):
        table = EnvelopeTable()
        mine = BENCH.relay_current(3, CURRENT)
        frame = encode_frame(SlotEnvelope(3, mine), table=table)
        assert decode_frame(frame, table=table).inner is mine
        # ... and a peer citing it later finds the same object.
        cited = BENCH.relay_current(2, mine)
        assert nested_current(decode_frame(encode_frame(cited), table=table)) is mine
        # Another endpoint's table never learns of it from the object.
        assert decode_frame(frame, table=EnvelopeTable()).inner is not mine

    def test_memos_survive_the_second_arrival(self):
        table = EnvelopeTable()
        alone = decode_frame(encode_frame(CURRENT), table=table)
        assert BENCH.verify(alone)  # fills the payload/digest memos
        memo = alone.payload_digest()
        again = nested_current(decode_frame(encode_frame(RELAYS[0]), table=table))
        assert again.__dict__["_payload_digest"] is memo

    def test_without_a_table_every_arrival_is_a_twin(self):
        frames = [encode_frame(relay) for relay in RELAYS]
        first, second = (nested_current(decode_frame(frame)) for frame in frames)
        assert first == second and first is not second

    def test_interning_is_off_under_the_kill_switch(self):
        table = EnvelopeTable()
        with caching_disabled():
            first = decode_frame(encode_frame(CURRENT, table=table), table=table)
            second = decode_frame(encode_frame(CURRENT, table=table), table=table)
        assert first == second and first is not second
        assert len(table) == 0 and table._encoded is None

    def test_tables_are_per_endpoint(self):
        frame = encode_frame(CURRENT)
        mine, theirs = EnvelopeTable(), EnvelopeTable()
        assert decode_frame(frame, table=mine) is not decode_frame(frame, table=theirs)

    def test_the_table_is_empty_once_the_last_reference_is_dropped(self):
        table = EnvelopeTable()
        held = [
            decode_frame(encode_frame(SlotEnvelope(0, relay)), table=table)
            for relay in RELAYS
        ]
        assert len(table) == 6
        # One this endpoint signed and sent: entered by the encoder.
        mine = BENCH.relay_current(3, CURRENT)
        encode_frame(SlotEnvelope(0, mine), table=table)
        assert len(table) == 7
        del held[0]
        gc.collect()
        assert len(table) == 6  # the other relay still cites CURRENT
        held.clear()
        del mine
        gc.collect()
        assert len(table) == 0
        # The broadcast memo kept bytes and digests of it, no object.
        assert table._encoded[0]() is None
        assert not any(
            isinstance(part, SignedMessage) for part in gc.get_referents(table._encoded)
        )

    def test_loopback_hub_keeps_the_plain_path(self):
        # The twin runs the deployed transport, table and all: a repeated
        # span arrives as the object already held, as over TCP.
        mesh = Mesh(make_genesis(4, seed=34, name="intern"), (0, 1))
        try:
            log = mesh.run(1.0, *((0, 1, relay) for relay in RELAYS))
        finally:
            mesh.close()
        first, second = (nested_current(message) for _, _, message, _ in log)
        assert first is not None and first is second


class TestSharedRecords:
    """A client request is decoded once per endpoint, then held while cited."""

    @staticmethod
    def slot_traffic(request: ClientRequest) -> list[SlotEnvelope]:
        """An INIT batching ``request``, then a CURRENT certifying that INIT."""
        init = BENCH.signed_init(0, (request,))
        current = BENCH.authorities[1].make(
            VCurrent(sender=1, round=1, est_vect=(init.body.value, NULL, NULL, NULL)),
            Certificate((init,)),
        )
        return [SlotEnvelope(2, init), SlotEnvelope(2, current)]

    def test_a_request_from_its_client_is_the_one_every_certificate_cites(self):
        registry = MetricsRegistry()
        table = EnvelopeTable(registry.scope(MODULE_NET, 0))
        request = ClientRequest(client=4, req_id=1, command=Command("set", "k", "v"))
        held = decode_frame(encode_frame(request), table=table)  # the client's own frame
        assert held == request and held is not request
        canonical_bytes(held)
        memo = held.__dict__["_canonical_memo"]
        init, current = (
            decode_frame(encode_frame(value), table=table).inner
            for value in self.slot_traffic(request)
        )
        assert init.body.value[0] is held
        assert current.body.est_vect[0][0] is held
        assert current.cert.entries[0] is init
        assert canonical_bytes(current.body.est_vect[0][0]) is memo
        cold = decode_frame(encode_frame(self.slot_traffic(request)[1])).inner
        assert cold == current and cold.body.est_vect[0][0] is not held
        # The root entered the request; each slot frame pooled it once and
        # found it held. The envelope counters count envelopes alone.
        count = lambda name: registry.counter_total(MODULE_NET, name)  # noqa: E731
        assert (count("requests_interned"), count("request_intern_hits")) == (1, 2)
        assert (count("envelopes_interned"), count("envelope_intern_hits")) == (2, 1)
        assert len(table) == 3
        del held, init, current, cold
        gc.collect()
        assert len(table) == 0

    def test_a_root_frame_after_a_citation_is_the_held_request(self):
        table = EnvelopeTable()
        request = ClientRequest(client=4, req_id=2, command=Command("set", "k", "v"))
        init = decode_frame(encode_frame(self.slot_traffic(request)[0]), table=table).inner
        held = init.body.value[0]
        assert decode_frame(encode_frame(request), table=table) is held
        assert decode_frame(encode_frame(request)) is not held
        with caching_disabled():
            assert decode_frame(encode_frame(request), table=table) is not held
        del init, held
        gc.collect()
        with caching_disabled():
            decode_frame(encode_frame(request), table=table)
            assert len(table) == 0


class TestTampering:
    """One flipped byte in a known record: a miss, then the usual verdict."""

    def verdict(self, frame: bytes, table, cache) -> tuple:
        """(rejecting module, detail) for one arriving relay frame."""
        try:
            relay = decode_frame(frame, table=table).inner
        except WireError:
            return ("wire",)
        inner = nested_current(relay)
        problems = (
            current_message_problems(relay, BENCH.params, BENCH.verify, cache=cache)
            if isinstance(relay, SignedMessage) and isinstance(relay.body, VCurrent)
            else ["not a CURRENT"]
        )
        if not isinstance(relay, SignedMessage) or not BENCH.verify(relay):
            module = "signature"
        elif problems:
            module = "certification"
        else:
            module = "accepted"
        return (
            module,
            inner is not None and BENCH.verify(inner),
            tuple(problems),
        )

    def test_every_flip_in_the_nested_span_misses_and_is_rejected_as_uncached(self):
        span = encode_payload(CURRENT)  # its pool: the INITs' records, then its own
        frame = encode_frame(SlotEnvelope(5, RELAYS[0]))
        start = frame.index(span)
        assert start == HEADER.size
        # Warm everything with the honest traffic: the table holds
        # CURRENT, the verdict caches hold its accepts.
        table, cache = EnvelopeTable(), PredicateCache()
        honest = decode_frame(encode_frame(SlotEnvelope(5, CURRENT)), table=table)
        assert self.verdict(frame, table, cache)[0] == "accepted"
        assert self.verdict(frame, table, cache)[0] == "accepted"

        cached, uncached = collections.Counter(), collections.Counter()
        for offset in range(len(span)):
            for bit in (0x01, 0x80):
                flipped = bytearray(frame)
                flipped[start + offset] ^= bit
                # As sent, whatever cited the flipped record dangles: the
                # wire's verdict, and the same one table or no table —
                # the records around it are all ones the table holds.
                as_sent = self.verdict(bytes(flipped), table, cache)
                with caching_disabled():
                    assert as_sent == self.verdict(bytes(flipped), None, None)
                assert as_sent == ("wire",), (offset, bit)
                # Re-cited up the chain it parses, if the flip left the
                # record well-formed, and the modules get to judge it.
                payload = recited(frame[HEADER.size :], bytes(flipped[HEADER.size :]))
                if payload is None:  # a flipped length byte
                    continue
                mutated = frame[: HEADER.size] + payload
                try:
                    seen = nested_current(decode_frame(mutated, table=table).inner)
                except WireError:
                    seen = None
                assert seen is not honest.inner  # the flipped record missed
                with_table = self.verdict(mutated, table, cache)
                with caching_disabled():
                    without = self.verdict(mutated, None, None)
                assert with_table == without, (offset, bit)
                if with_table[0] == "accepted":
                    # The codec reads a few non-canonical spellings (an
                    # empty tuple flipped to empty bytes): a different
                    # record, hence a miss, for the very same value.
                    assert decode_frame(mutated).inner == RELAYS[0]
                cached[with_table[0]] += 1
                uncached[without[0]] += 1
        assert cached == uncached
        assert cached["signature"] > 0 and cached["wire"] > 0
        # The honest frame is still accepted afterwards, by the same object.
        assert nested_current(decode_frame(frame, table=table).inner) is honest.inner
        assert self.verdict(frame, table, cache)[0] == "accepted"


class TestEncodeOnce:
    def test_a_broadcast_is_spliced_byte_identically(self):
        table = EnvelopeTable()
        plain = [encode_frame(SlotEnvelope(slot, RELAYS[0])) for slot in (7, 7, 8)]
        spliced = [
            encode_frame(SlotEnvelope(slot, RELAYS[0]), table=table)
            for slot in (7, 7, 8)
        ]
        assert spliced == plain
        # Only the outermost envelope is remembered, not the nested CURRENT.
        assert table._encoded[0]() is RELAYS[0]
        assert encode_frame(SlotEnvelope(7, RELAYS[1]), table=table) == encode_frame(
            SlotEnvelope(7, RELAYS[1])
        )
        assert table._encoded[0]() is RELAYS[1]
        # ... and that is decided once a payload: the table is asked for
        # the outermost envelope alone, not down its first-child chain.
        with mock.patch.object(
            EnvelopeTable, "remember", autospec=True, side_effect=EnvelopeTable.remember
        ) as remember, mock.patch.object(
            EnvelopeTable, "spliced", autospec=True, side_effect=EnvelopeTable.spliced
        ) as asked:
            for held in (EnvelopeTable(), table):
                assert encode_frame(SlotEnvelope(7, RELAYS[0]), table=held) == plain[0]
        assert remember.call_count == asked.call_count == 2
        assert table._walk.table is table

    def test_a_splice_past_the_depth_ceiling_still_raises(self):
        def wrapped(levels: int):
            value = RELAYS[0]
            for _ in range(levels):
                value = (value,)
            return value

        # The deepest wrapping the plain encoder accepts.
        deepest = max(
            levels
            for levels in range(MAX_DEPTH + 1)
            if _encodes(wrapped(levels))
        )
        table = EnvelopeTable()
        encode_frame(SlotEnvelope(0, RELAYS[0]), table=table)  # memoised with its height
        assert encode_frame(wrapped(deepest), table=table) == encode_frame(
            wrapped(deepest)
        )
        for levels in (deepest + 1, deepest + 2):
            with pytest.raises(WireError):
                encode_frame(wrapped(levels), table=table)
        # ... and back at a shallow depth the memo is still good.
        assert encode_frame(SlotEnvelope(0, RELAYS[0]), table=table) == encode_frame(
            SlotEnvelope(0, RELAYS[0])
        )


    def test_an_unencodable_envelope_leaves_the_table_working(self):
        table = EnvelopeTable()
        broken = SignedMessage(object(), RELAYS[0].cert, RELAYS[0].signature)
        with pytest.raises(WireError):
            encode_frame(SlotEnvelope(1, broken), table=table)
        mine = BENCH.relay_current(3, CURRENT)
        frame = encode_frame(SlotEnvelope(1, mine), table=table)
        assert frame == encode_frame(SlotEnvelope(1, mine))
        assert table._encoded[0]() is mine
        assert decode_frame(frame, table=table).inner is mine


def _encodes(value) -> bool:
    try:
        encode_frame(value)
    except WireError:
        return False
    return True


# -- random envelope trees ---------------------------------------------------


_TREES = envelope_trees(BENCH)


class TestRandomTrees:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_TREES, min_size=1, max_size=4), st.data())
    def test_decoding_with_a_table_equals_decoding_without(self, trees, data):
        # Arrivals repeat: every tree is sent again, re-wrapped, in a
        # drawn order — as certificates re-cite earlier envelopes.
        arrivals = trees + data.draw(st.permutations(trees))
        table = EnvelopeTable()
        first_seen: dict[int, SignedMessage] = {}
        for tree in arrivals:
            frame = encode_frame(SlotEnvelope(1, tree))
            assert encode_frame(SlotEnvelope(1, tree), table=table) == frame
            interned = decode_frame(frame, table=table).inner
            plain = decode_frame(frame).inner
            assert interned == plain == tree
            assert encode_frame(SlotEnvelope(1, interned)) == frame
            for ours, theirs in zip(envelopes(interned), envelopes(plain), strict=True):
                assert ours.light_bytes() == theirs.light_bytes()
                assert ours.payload_digest() == theirs.payload_digest()
                assert ours.envelope_digest() == theirs.envelope_digest()
                assert BENCH.verify(ours) == BENCH.verify(theirs)
            # A tree's second arrival is its first arrival's object.
            assert first_seen.setdefault(id(tree), interned) is interned


# -- real sockets --------------------------------------------------------------


async def _run_cluster(requests: int) -> tuple[list[str], list[NetNode]]:
    """n=4 over loopback TCP on this loop; ``requests`` sequential sets."""
    genesis = make_genesis(4, seed=33)
    loop = asyncio.get_running_loop()
    nodes = []
    for pid in range(4):
        node = NetNode(genesis, pid, WallScheduler(loop))
        node.attach_transport(
            PeerTransport(genesis, pid, node.handle_message, metrics=node.net_metrics)
        )
        nodes.append(node)
    client = NetClient(genesis)
    try:
        for node in nodes:
            await node.transport.start()
            node.start()
        await wait_cluster_ready(client)
        for i in range(requests):
            await client.set(f"k{i % 5}", f"v{i}")
        deadline = loop.time() + 20.0
        while any(node.process.slotlog.committed_commands < requests for node in nodes):
            assert loop.time() < deadline, "replicas did not converge"
            await asyncio.sleep(0.05)
        return [node.process.slotlog.store.digest() for node in nodes], nodes
    finally:
        await client.close()
        for node in nodes:
            await node.transport.stop()


class TestOverSockets:
    def test_interning_on_and_off_commit_the_same_store(self):
        digests, nodes = asyncio.run(_run_cluster(12))
        with caching_disabled():
            plain_digests, plain_nodes = asyncio.run(_run_cluster(12))
        assert len(set(digests)) == 1
        assert digests == plain_digests
        for node in nodes:
            assert node.metrics.counter_total(MODULE_NET, "envelopes_interned") > 0
            assert node.metrics.counter_total(MODULE_NET, "envelope_intern_hits") > 0
        for node in plain_nodes:
            assert node.metrics.counter_total(MODULE_NET, "envelopes_interned") == 0
            assert node.metrics.counter_total(MODULE_NET, "envelope_intern_hits") == 0
        # `repro report` lists every counter of a module: the two are there.
        rendered = RunReport.from_metrics(nodes[0].metrics).render()
        assert "envelopes_interned" in rendered
        assert "envelope_intern_hits" in rendered
