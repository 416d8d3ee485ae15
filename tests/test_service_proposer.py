"""Tests: one proposer per request, every replica holding every request.

Clients send each request, and each resubmission, to every replica; the
replicas pick its proposer — the first seat of the rotation
``(client + req_id + attempt + k) mod n`` whose entry was not NULL in
the last applied slot (docs/SERVICE.md). Everything here runs on the
deterministic loopback twin under virtual time, except the two tests of
the TCP client, which need real sockets (refused, and never read).
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import socket
import weakref
from collections import Counter

import pytest

from repro.core.certificates import SignedMessage
from repro.crypto.cache import SignatureCache
from repro.messages.consensus import NULL, Init
from repro.net.client import NetClient
from repro.net.cluster import make_genesis
from repro.net.genesis import Genesis
from repro.net.loopback import TWIN_KNOBS, LoopbackCluster, fixed_addresses
from repro.net.messages import StatusRequest
from repro.net.node import BoundedTrace
from repro.net.wire import FrameAssembler, decode_frame, encode_frame
from repro.observability.export import run_to_lines
from repro.observability.registry import MODULE_NET, MetricsRegistry
from repro.observability.trace import Trace
from repro.replication.kvstore import Command
from repro.service.messages import ClientReply, ClientRequest, SlotEnvelope, StateRequest
from repro.service.slotlog import NOOP

from tests.helpers import Ops, SignedWorkbench, group_state, run_virtual

N = 4


_TWINS: list[LoopbackCluster] = []


@pytest.fixture(autouse=True)
def _close_twins():
    yield
    while _TWINS:
        _TWINS.pop().close()


def twin(seed: int = 3, link=None, **knobs) -> LoopbackCluster:
    """A twin whose client 0 runs operations through ``cluster.ops``."""
    genesis = Genesis(
        name="proposer",
        seed=seed,
        n_replicas=N,
        addresses=fixed_addresses(N, 47_000),
        **{**TWIN_KNOBS, **knobs},
    )
    cluster = LoopbackCluster(genesis, link=link)
    cluster.ops = Ops(cluster)
    _TWINS.append(cluster)
    return cluster


def spy_proposals(cluster: LoopbackCluster) -> list[tuple[int, int, tuple]]:
    """Record ``(pid, slot, batch)`` for every non-empty proposal."""
    seen: list[tuple[int, int, tuple]] = []
    for pid, node in cluster.nodes.items():
        process = node.process
        original = process.slotlog._proposal_for

        def spying(slot, pid=pid, original=original):
            proposal = original(slot)
            if isinstance(proposal, tuple):
                seen.append((pid, slot, proposal))
            return proposal

        process.slotlog._proposal_for = spying
    return seen


def burst(cluster: LoopbackCluster, count: int, *, every: int = 8) -> list[int]:
    """``count`` sets, ``every`` at a time with a short pause between."""
    client = cluster.ops
    ids = []
    for i in range(count):
        ids.append(client.set(f"k{i % 16}", f"v{i}"))
        if i % every == every - 1:
            cluster.pump(0.3)
    return ids


class TestOneProposerPerRequest:
    def test_fault_free_each_request_is_proposed_once_but_for_null_hand_over(self):
        # No checkpoint truncates the vector history inside the run, so
        # every proposal can be judged against its slot's decision.
        cluster = twin(checkpoint_interval=1000)
        proposals = spy_proposals(cluster)
        ids = burst(cluster, 64)
        cluster.pump(4)
        assert cluster.ops.completed == set(ids)
        assert set(group_state(cluster, "committed").values()) == {64}
        vectors = cluster.nodes[0].process._vector_history
        kept: Counter = Counter()
        handed_over = 0
        for pid, slot, batch in proposals:
            if vectors[slot][pid] == NULL:
                handed_over += len(batch)  # the INIT race lost: re-proposed
                continue
            kept.update(request.ident for request in batch)
        assert set(kept.values()) == {1}
        assert len(kept) == 64
        # Every request was proposed once, plus once per lost batch.
        assert len(proposals) and sum(
            len(batch) for _, _, batch in proposals
        ) == 64 + handed_over
        # Batches fill across the cluster: far fewer slots than requests.
        assert len(vectors) <= 64 // 4

    def test_killing_a_proposer_hands_its_requests_on_before_the_timeout(self):
        cluster = twin()
        burst(cluster, 16)
        cluster.pump(2)
        client = cluster.ops
        # Three requests: below the size trigger, so the batch timer is
        # the only thing that will open their slot.
        ids = [client.set(f"late{i}", "x") for i in range(3)]
        cluster.pump(0)
        holder = cluster.nodes[0].process
        held = [holder.slotlog.pending[(client.pid, req_id)] for req_id in ids]
        proposers = {holder.slotlog._proposer(request) for request in held}
        # Round 1 of every slot is coordinated by replica 0; killing it
        # would time the rounds out, which is not what is under test.
        victim = max(proposers)
        assert victim != 0
        for pid, node in cluster.nodes.items():
            if pid != victim:
                seats = {node.process.slotlog._proposer(request) for request in held}
                assert seats == proposers  # the survivors agree on the seats
        started = cluster.scheduler.now
        cluster.kill(victim)
        assert cluster.run_until(
            lambda: set(ids) <= client.completed, cluster.genesis.request_timeout
        )
        assert cluster.scheduler.now - started < cluster.genesis.request_timeout
        assert all(client.sent[req_id] == 1 for req_id in ids)

    def test_a_request_held_by_one_non_proposer_still_commits(self):
        cluster = twin()
        burst(cluster, 8)
        cluster.pump(2)
        node = cluster.nodes[0].process
        pid = N + 1
        request = ClientRequest(client=pid, req_id=7, command=Command("set", "solo", "1"))
        seat = (pid + 7) % N
        holder = next(
            replica
            for replica in range(N)
            if replica != seat and replica not in node.slotlog._silent
        )
        acks: set[int] = set()
        # Client 1 sends on its own dialers, only ever to the one replica.
        client = NetClient(cluster.genesis, 1, first_req_id=0)
        client.session.on_reply = lambda src, message: (
            acks.add(message.replica) if isinstance(message, ClientReply) else None
        )
        cluster.clients.append(client)  # closed with the twin
        # Replies travel on the connections the client opened: open one
        # to every replica with a status probe.
        probe = encode_frame(StatusRequest(client.pid, 0))
        for dialer in client._dialers:
            cluster.loop.call_soon(dialer.send, probe)
        timeout = cluster.genesis.request_timeout
        for _attempt in range(2 * N):
            cluster.loop.call_soon(client._dialers[holder].send, encode_frame(request))
            cluster.pump(timeout)
            if len(acks) >= 2:
                break
        assert len(acks) >= 2
        assert set(group_state(cluster, "committed").values()) == {9}

    def test_duplicating_links_never_double_commit(self):
        sends = Counter()

        def duplicate_some(now, src, dst, payload):
            # Every other client frame arrives twice: the replicas count
            # a request's receipts differently, so they may disagree on
            # its seat — two propose it, or none until a resubmission.
            # (Replica links stay FIFO-exact: the Figure-4 automata
            # rightly convict a sender whose messages repeat.)
            if src < N:
                return None
            sends[dst] += 1
            return [(payload, 0.0)] * 2 if sends[dst] % 2 == dst % 2 else None

        cluster = twin(link=duplicate_some, checkpoint_interval=1000)
        proposals = spy_proposals(cluster)
        ids = burst(cluster, 48)
        cluster.pump(6)
        proposed = Counter(
            request.ident for _, _, batch in proposals for request in batch
        )
        assert max(proposed.values()) > 1  # the seats did disagree
        assert cluster.ops.completed == set(ids)
        assert len(set(group_state(cluster, "digest").values())) == 1
        for node in cluster.nodes.values():
            idents = [entry.ident for _, _, entry in node.process.slotlog.log]
            assert sorted(idents) == sorted(set(idents)) == sorted(proposed)
            assert node.metrics.counter_total("service", "commands_committed") == 48

    def test_a_replica_relaying_requests_cannot_keep_their_seat(self):
        # A Byzantine replica that proposes no client request (yet never
        # NULL) and relays each request it receives as often as it takes
        # to make the others count it as the request's seat. Relays are
        # not the client's own submissions, so they move nothing: a
        # request seated at the rogue waits for one resubmission — and
        # more than batch_size of them passed over open no stream of
        # slots in the meantime.
        cluster = twin(checkpoint_interval=1000)
        rogue = 2  # not replica 0, the round-1 coordinator of every slot
        node = cluster.nodes[rogue]
        process = node.process
        received: Counter = Counter()
        relayed: Counter = Counter()
        deliver, propose = process.deliver, process.slotlog._proposal_for

        def relaying(src, payload):
            if isinstance(payload, ClientRequest) and src == payload.client:
                ident = payload.ident
                received[ident] += 1
                start = payload.client + payload.req_id + received[ident] - 1
                extra = (rogue - start - relayed[ident]) % N
                relayed[ident] += extra
                for dst in range(N):
                    if dst != rogue:
                        for _ in range(extra):
                            node.transport.send(dst, payload)
            deliver(src, payload)

        def withholding(slot):
            # Slots reopened for requests the rogue passes over would
            # spin the twin at one virtual instant; fail instead.
            assert slot < 64, "slots keep opening for passed-over requests"
            propose(slot)
            return NOOP

        process.deliver, process.slotlog._proposal_for = relaying, withholding
        client = cluster.ops
        ids = burst(cluster, 64, every=32)
        cluster.pump(3 * cluster.genesis.request_timeout)
        assert sum(relayed.values()) > 0
        assert client.completed == set(ids)
        assert max(client.sent[req_id] for req_id in ids) <= 2
        # Only the requests the rotation itself seats at the rogue wait.
        waited = {req_id for req_id in ids if client.sent[req_id] > 1}
        assert waited <= {req_id for req_id in ids if (client.pid + req_id) % N == rogue}
        for pid, other in cluster.nodes.items():
            if pid != rogue:
                rejected = other.metrics.counter_total("service", "requests_rejected")
                assert rejected == sum(relayed.values())


class TestMemoryPerOp:
    def test_a_dropped_domain_takes_exactly_its_verdicts(self):
        cache = SignatureCache(max_entries=3)
        for domain in ("a", "b"):
            cache.store((domain, 1), True)
        cache.store(("b", 2), False)
        cache.drop_domain("b")
        cache.drop_domain("never-seen")
        assert len(cache) == 1
        assert cache.lookup(("a", 1)) is True
        assert cache.lookup(("b", 2)) is None
        cache.store(("c", 1), True)
        cache.store(("c", 2), True)
        cache.store(("c", 3), True)  # full: the oldest domain's oldest goes
        assert len(cache) == 3
        assert cache.lookup(("a", 1)) is None

    def test_truncation_drops_the_verdicts_of_dead_slots(self):
        cluster = twin(seed=5)
        burst(cluster, 64)
        cluster.pump(4)
        for node in cluster.nodes.values():
            process = node.process
            assert process.base_slot > 0
            base = process.config.seed * 1_000_003
            kept = [seed - base for _n, seed in process._sig_cache._domains]
            # Slot domains at or past the stable checkpoint, plus the
            # checkpoint votes' own domain (offset -1).
            assert kept and all(slot >= process.base_slot or slot == -1 for slot in kept)

    def test_the_trace_keeps_renderings_and_exports_the_same_bytes(self):
        bench = SignedWorkbench(N)
        batch = tuple(
            ClientRequest(client=N, req_id=i, command=Command("set", f"k{i}", "v" * 64))
            for i in range(3)
        )
        envelope = decode_frame(encode_frame(bench.signed_init(1, batch)))
        assert isinstance(envelope, SignedMessage)
        probe = weakref.ref(envelope)
        bounded, plain = BoundedTrace(), Trace()
        for trace in (bounded, plain):
            trace.record(0.5, "decide", process=1, value=batch, round=1)
            trace.record(0.75, "probe", process=1, envelope=envelope, note=None)
        metrics = MetricsRegistry()
        assert list(run_to_lines(bounded, metrics)) == list(run_to_lines(plain, metrics))
        del envelope, plain, trace
        gc.collect()
        assert probe() is None

    def test_a_decoded_batch_is_not_kept_alive_past_truncation(self):
        cluster = twin(seed=5)
        node = cluster.nodes[1]
        process = node.process
        captured: list[weakref.ref] = []
        deliver = process.deliver

        def spying(src, payload):
            inner = getattr(payload, "inner", None)
            if (
                not captured
                and isinstance(payload, SlotEnvelope)
                and payload.slot == 0
                and isinstance(inner, SignedMessage)
                and isinstance(inner.body, Init)
                and isinstance(inner.body.value, tuple)
            ):
                captured.append(weakref.ref(inner))
                process.record("probe", envelope=inner)
            deliver(src, payload)

        process.deliver = spying
        burst(cluster, 64)
        cluster.pump(4)
        assert captured and process.base_slot > 0
        gc.collect()
        assert captured[0]() is None
        assert any(event.kind == "probe" for event in node.trace)


class TestStaleTraffic:
    def test_a_stale_envelope_costs_one_mac_and_refills_no_dead_domain(self):
        cluster = twin(seed=5)
        node = cluster.nodes[1]
        process = node.process
        captured: list = []
        deliver = process.deliver

        def spying(src, payload):
            if (
                not captured
                and isinstance(payload, SlotEnvelope)
                and payload.slot == 0
                and isinstance(payload.inner, SignedMessage)
                and payload.inner.body.sender == src != node.pid
            ):
                captured.append((src, payload))
            deliver(src, payload)

        process.deliver = spying
        burst(cluster, 64)
        cluster.pump(4)
        assert captured and process.base_slot > 0
        src, envelope = captured[0]
        forged = SlotEnvelope(
            0,
            dataclasses.replace(
                envelope.inner,
                signature=dataclasses.replace(
                    envelope.inner.signature, mac=bytes(len(envelope.inner.signature.mac))
                ),
            ),
        )
        stale = process._stale_sig_cache
        before = (stale.misses, stale.hits)
        for payload in (envelope, envelope, forged, forged):
            process.deliver(src, payload)
        # One MAC per distinct envelope: each replay is a cache hit.
        assert (stale.misses - before[0], stale.hits - before[1]) == (2, 2)
        assert process._stale_culprits == {src}
        dead = process._slot_domain(0)
        assert all(domain != dead for domain in process._sig_cache._domains)

    def test_a_stale_state_response_is_checked_whichever_arrives_first(self):
        cluster = twin(seed=5)
        burst(cluster, 64)
        cluster.pump(4)
        server, receiver = cluster.nodes[0].process, cluster.nodes[1].process
        served: list = []
        server.send = lambda dst, payload: served.append(payload)
        server._on_state_request(1, StateRequest(replica=1, applied=0))
        response = served[-1]
        assert 0 < response.count <= receiver.slotlog.next_apply
        assert response.snapshot == receiver._stable_snapshot[0]
        key, value = response.snapshot[0]
        flipped = dataclasses.replace(
            response, snapshot=((key, value + "!"),) + tuple(response.snapshot[1:])
        )
        counters = cluster.nodes[1].metrics

        def rejections():
            return counters.counter_total("service", "state_responses_rejected")

        receiver._on_state_response(response)  # the state it holds: accepted
        assert rejections() == 0
        receiver._on_state_response(flipped)
        assert rejections() == 1


def test_a_dead_replica_costs_one_dial_per_backoff_period(monkeypatch):
    dials = Counter()
    open_connection = asyncio.open_connection

    async def counting(host, port, *args, **kwargs):
        dials[port] += 1
        return await open_connection(host, port, *args, **kwargs)

    monkeypatch.setattr(asyncio, "open_connection", counting)

    async def scenario():
        genesis = make_genesis(N, seed=41, name="backoff")  # nothing listens
        client = NetClient(genesis)
        request = ClientRequest(client=client.pid, req_id=1, command=Command("set", "k", "v"))
        # Eight sends before any dial finishes share each replica's one dial.
        for _ in range(8):
            client._multicast(request)
        await asyncio.sleep(0.01)
        assert sorted(dials.values()) == [1] * N
        loop = asyncio.get_running_loop()
        started = loop.time()
        sends = 0
        while loop.time() - started < 0.25:
            client._multicast(request)
            sends += 1
            await asyncio.sleep(0.005)
        await client.close()
        # 0.1 s, then 0.2 s of backoff: at most two more dials each.
        assert sends > 20
        assert len(dials) == N and max(dials.values()) <= 3

    asyncio.run(scenario())


def test_a_replica_that_stops_reading_holds_up_no_one():
    # Replica 0 accepts and never reads; the other three answer every
    # request. Every set still completes at the speed of the three, and
    # the deaf replica's connection is dropped once its buffer backs up
    # for a request_timeout.
    async def scenario():
        loop = asyncio.get_running_loop()
        received: Counter = Counter()
        deaf_connections = []

        def answering(replica):
            async def serve(reader, writer):
                assembler = FrameAssembler()
                try:
                    while data := await reader.read(1 << 16):
                        for message in assembler.feed(data):
                            if isinstance(message, ClientRequest):
                                received[replica] += 1
                                reply = ClientReply(replica, message.client, message.req_id, 0)
                                writer.write(encode_frame(reply))
                finally:
                    writer.close()

            return serve

        async def deaf(reader, writer):
            deaf_connections.append(writer)

        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", 0))
        servers = [await asyncio.start_server(deaf, sock=listener)]
        for replica in range(1, N):
            servers.append(await asyncio.start_server(answering(replica), "127.0.0.1", 0))
        genesis = Genesis(
            name="deaf",
            seed=5,
            n_replicas=N,
            addresses=tuple(server.sockets[0].getsockname()[:2] for server in servers),
            request_timeout=0.5,
        )
        client = NetClient(genesis)
        value = "x" * (128 << 10)
        slowest = 0.0
        for i in range(48):  # 6 MiB: more than the deaf socket's buffers hold
            started = loop.time()
            await client.set(f"k{i}", value)
            slowest = max(slowest, loop.time() - started)
        await asyncio.sleep(2 * genesis.request_timeout)
        await client.close()
        for writer in deaf_connections:
            writer.close()
        for server in servers:
            server.close()
            await server.wait_closed()
        await asyncio.sleep(0.05)
        assert deaf_connections
        assert slowest < genesis.request_timeout and client.resubmissions == 0
        assert [received[replica] for replica in range(1, N)] == [48] * (N - 1)
        dropped = {
            replica
            for replica in range(N)
            if client.metrics.counter(MODULE_NET, "peer_reconnects", pid=replica)
        }
        assert dropped == {0}

    asyncio.run(asyncio.wait_for(scenario(), 20))


def test_a_request_sent_before_a_replica_listens_reaches_it():
    # Replica 3 starts listening 0.2 s after the set, well inside
    # request_timeout: the frame waits in the dialer's backlog through
    # the refused dials and arrives without a resubmission.
    async def scenario():
        loop = asyncio.get_running_loop()
        received: Counter = Counter()

        def answering(replica):
            async def serve(reader, writer):
                assembler = FrameAssembler()
                try:
                    while data := await reader.read(1 << 16):
                        for message in assembler.feed(data):
                            if isinstance(message, ClientRequest):
                                received[replica] += 1
                                reply = ClientReply(replica, message.client, message.req_id, 0)
                                writer.write(encode_frame(reply))
                finally:
                    writer.close()

            return serve

        servers = [
            await asyncio.start_server(answering(replica), "127.0.0.1", 0)
            for replica in range(N - 1)
        ]
        late = socket.socket()
        late.bind(("127.0.0.1", 0))  # bound, not listening: dials are refused
        genesis = Genesis(
            name="late",
            seed=6,
            n_replicas=N,
            addresses=(
                *(server.sockets[0].getsockname()[:2] for server in servers),
                late.getsockname()[:2],
            ),
        )
        client = NetClient(genesis)
        started = loop.time()
        await client.set("k", "v")
        await asyncio.sleep(0.2 - (loop.time() - started))
        servers.append(await asyncio.start_server(answering(N - 1), sock=late))
        while not received[N - 1] and loop.time() - started < genesis.request_timeout:
            await asyncio.sleep(0.02)
        await client.close()
        for server in servers:
            server.close()
            await server.wait_closed()
        assert received[N - 1] == 1
        assert client.resubmissions == 0

    asyncio.run(asyncio.wait_for(scenario(), 20))


def test_a_request_sent_before_a_replica_listens_reaches_it_on_the_virtual_loop():
    # The same scenario on the virtual loop: replica 3 starts listening
    # 0.2 s after the set, and its frame arrives from the dialer's
    # backlog, at the first dial after the refused ones.
    async def scenario():
        loop = asyncio.get_running_loop()
        received: dict[int, float] = {}
        genesis = Genesis(
            name="late", seed=6, n_replicas=N, addresses=fixed_addresses(N, 49_100)
        )

        def answering(replica):
            async def serve(reader, writer):
                assembler = FrameAssembler()
                while data := await reader.read(1 << 16):
                    for message in assembler.feed(data):
                        if isinstance(message, ClientRequest):
                            received.setdefault(replica, loop.time())
                            reply = ClientReply(replica, message.client, message.req_id, 0)
                            writer.write(encode_frame(reply))
                writer.close()

            return serve

        servers = [
            await asyncio.start_server(answering(replica), *genesis.address_of(replica))
            for replica in range(N - 1)
        ]
        client = NetClient(genesis, first_req_id=0)
        await client.set("k", "v")
        await asyncio.sleep(0.2 - loop.time())
        servers.append(
            await asyncio.start_server(answering(N - 1), *genesis.address_of(N - 1))
        )
        await asyncio.sleep(genesis.request_timeout)
        await client.close()
        for server in servers:
            server.close()
        await asyncio.sleep(0.01)  # each server's connection sees the EOF
        assert 0.2 <= received[N - 1] < genesis.request_timeout
        assert client.resubmissions == 0

    run_virtual(scenario())
