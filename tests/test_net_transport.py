"""Tests: the real-socket transport (repro.net.transport.PeerTransport).

Small asyncio deployments on loopback TCP: framed delivery both ways,
the authenticated hello gate, client connection routing, bounded
outbound queues dropping oldest, and automatic reconnect to a
restarted peer. Everything binds to OS-assigned free ports so tests
never collide.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import socket

from repro.net.cluster import make_genesis
from repro.net.genesis import Genesis
from repro.net.loopback import fixed_addresses
from repro.net.messages import ROLE_CLIENT
from repro.net import transport as transport_module
from repro.net.transport import PeerTransport
from repro.net.wire import FrameAssembler, encode_frame
from repro.observability.registry import MODULE_NET, MetricsRegistry

from tests.helpers import run_virtual


class Endpoint:
    """One PeerTransport plus an inbox and per-test metrics."""

    def __init__(self, genesis, pid, **kwargs):
        self.pid = pid
        self.inbox: list[tuple[int, object]] = []
        self.arrived = asyncio.Event()
        self.registry = MetricsRegistry()
        self.transport = PeerTransport(
            genesis,
            pid,
            self._receive,
            metrics=self.registry.scope(MODULE_NET, pid),
            **kwargs,
        )

    def _receive(self, src, message):
        self.inbox.append((src, message))
        self.arrived.set()

    async def expect(self, count, timeout=8.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while len(self.inbox) < count:
            remaining = deadline - asyncio.get_running_loop().time()
            self.arrived.clear()
            await asyncio.wait_for(self.arrived.wait(), max(0.05, remaining))
        return self.inbox

    def counter(self, name):
        return self.registry.counter_total(MODULE_NET, name)


def test_replicas_exchange_framed_messages():
    async def scenario():
        genesis = make_genesis(4, seed=21)
        a, b = Endpoint(genesis, 0), Endpoint(genesis, 1)
        await a.transport.start()
        await b.transport.start()
        try:
            a.transport.send(1, ("ping", 1))
            b.transport.send(0, ("pong", 2))
            a.transport.send(0, "self")  # self-delivery round-trips the codec
            assert (await b.expect(1))[0] == (0, ("ping", 1))
            await a.expect(2)
            assert set(a.inbox) == {(1, ("pong", 2)), (0, "self")}
            assert a.counter("frames_sent") == 2
            assert b.counter("frames_received") >= 1
        finally:
            await a.transport.stop()
            await b.transport.stop()

    asyncio.run(scenario())


def test_connections_without_a_valid_hello_are_refused():
    async def scenario():
        genesis = make_genesis(4, seed=22)
        node = Endpoint(genesis, 0)
        await node.transport.start()
        try:
            for opener in (
                encode_frame("not a hello"),
                encode_frame(genesis.hello_for(2, 1, "replica")),  # wrong target
                b"\x00" * 16,  # not even a frame
            ):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", node.transport.bound_port
                )
                writer.write(opener + encode_frame("smuggled"))
                await writer.drain()
                assert await reader.read() == b""  # server hung up on us
                writer.close()
            assert node.inbox == []  # nothing smuggled past the gate
            assert node.counter("hello_rejected") >= 2
        finally:
            await node.transport.stop()

    asyncio.run(scenario())


def test_client_replies_route_over_the_clients_own_connection():
    async def scenario():
        genesis = make_genesis(4, seed=23)
        node = Endpoint(genesis, 0)
        await node.transport.start()
        client_pid = genesis.n_replicas
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", node.transport.bound_port
            )
            writer.write(
                encode_frame(genesis.hello_for(client_pid, 0, ROLE_CLIENT))
            )
            writer.write(encode_frame(("request", 7)))
            await writer.drain()
            await node.expect(1)
            assert node.inbox == [(client_pid, ("request", 7))]
            node.transport.send(client_pid, ("reply", 7))
            assembler = FrameAssembler()
            messages = []
            while not messages:
                messages = assembler.feed(await reader.read(1 << 16))
            assert messages == [("reply", 7)]
            writer.close()
        finally:
            await node.transport.stop()

    asyncio.run(scenario())


def test_a_client_that_stops_reading_loses_its_connection():
    # The client says a valid hello and never reads again: once the
    # reply connection's buffer has not drained for a request_timeout,
    # the replica closes it instead of buffering replies without bound.
    async def scenario():
        genesis = make_genesis(4, seed=26, request_timeout=0.5)
        node = Endpoint(genesis, 0)
        await node.transport.start()
        client_pid = genesis.n_replicas
        loop = asyncio.get_running_loop()
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        try:
            await loop.sock_connect(sock, ("127.0.0.1", node.transport.bound_port))
            await loop.sock_sendall(
                sock,
                encode_frame(genesis.hello_for(client_pid, 0, ROLE_CLIENT))
                + encode_frame(("get", 1)),
            )
            await node.expect(1)
            reply = ("reply", "x" * (64 << 10))
            started = loop.time()
            while not node.counter("client_frames_dropped"):
                assert loop.time() - started < 6 * genesis.request_timeout
                node.transport.send(client_pid, reply)
                await asyncio.sleep(0.01)
            assert node.transport._clients == {}  # the connection is gone
        finally:
            sock.close()
            await node.transport.stop()

    asyncio.run(scenario())


def test_a_peer_that_stops_reading_is_redialed_and_holds_up_no_one():
    # Peer 1 accepts and never reads. Replica 0's connection to it is
    # closed once a drain has waited a request_timeout, then redialed;
    # peer 2 gets every frame meanwhile.
    async def scenario():
        deaf_connections = []
        heard = []

        async def deaf(reader, writer):
            deaf_connections.append(writer)

        async def hearing(reader, writer):
            assembler = FrameAssembler()
            while data := await reader.read(1 << 16):
                heard.extend(assembler.feed(data))
            writer.close()

        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", 0))
        servers = [
            await asyncio.start_server(deaf, sock=listener),
            await asyncio.start_server(hearing, "127.0.0.1", 0),
        ]
        addresses = make_genesis(4, seed=27).addresses
        genesis = Genesis(
            name="deaf-peer",
            seed=27,
            n_replicas=4,
            addresses=(
                addresses[0],
                *(server.sockets[0].getsockname()[:2] for server in servers),
                addresses[3],
            ),
            request_timeout=0.5,
        )
        sender = Endpoint(genesis, 0)
        await sender.transport.start()
        loop = asyncio.get_running_loop()
        try:
            bulk = "x" * (128 << 10)
            for i in range(60):  # 7.5 MiB to the deaf peer over 1.2 s
                sender.transport.send(1, ("bulk", i, bulk))
                sender.transport.send(2, ("small", i))
                await asyncio.sleep(0.02)
            started = loop.time()
            while len(heard) < 61 or len(deaf_connections) < 2:
                assert loop.time() - started < 6 * genesis.request_timeout
                sender.transport.send(1, ("bulk", -1, bulk))
                await asyncio.sleep(0.05)
            assert heard[1:] == [("small", i) for i in range(60)]  # after the hello
            assert sender.counter("peer_reconnects") >= 1
        finally:
            await sender.transport.stop()
            for writer in deaf_connections:
                writer.close()
            for server in servers:
                server.close()
                await server.wait_closed()

    asyncio.run(asyncio.wait_for(scenario(), 30))


def test_outbound_queue_drops_oldest_when_peer_is_down(monkeypatch):
    monkeypatch.setattr(transport_module, "QUEUE_LIMIT", 8)

    async def scenario():
        genesis = make_genesis(4, seed=24)
        node = Endpoint(genesis, 0)
        await node.transport.start()
        try:
            for i in range(20):  # peer 1 never comes up
                node.transport.send(1, ("stale", i))
            assert node.counter("frames_dropped") >= 12
        finally:
            await node.transport.stop()

    asyncio.run(scenario())


def test_sender_reconnects_to_a_restarted_peer():
    async def scenario():
        genesis = make_genesis(4, seed=25)
        a, b = Endpoint(genesis, 0), Endpoint(genesis, 1)
        await a.transport.start()
        await b.transport.start()
        try:
            a.transport.send(1, "before")
            await b.expect(1)
            await b.transport.stop()  # crash the peer...
            a.transport.send(1, "into the void")  # may be lost: that's fine
            reborn = Endpoint(genesis, 1)
            await reborn.transport.start()  # ...and restart on the same port
            try:
                # Frames can die with the old connection — the contract
                # is that *retried* sends get through once the dialer's
                # backoff loop re-establishes the mesh, with no
                # orchestration beyond restarting the process.
                deadline = asyncio.get_running_loop().time() + 20.0
                while not reborn.inbox:
                    assert asyncio.get_running_loop().time() < deadline
                    a.transport.send(1, "after restart")
                    await asyncio.sleep(0.2)
                assert ("after restart" in {m for _, m in reborn.inbox}) or (
                    "into the void" in {m for _, m in reborn.inbox}
                )
                assert reborn.inbox[0][0] == 0
                assert a.counter("peer_reconnects") >= 1
            finally:
                await reborn.transport.stop()
        finally:
            await a.transport.stop()

    asyncio.run(scenario())


async def commit_and_stop(genesis):
    """Four replicas and a client commit one set, then shut down; returns
    the tasks still alive besides this one."""
    from repro.net.client import NetClient
    from repro.net.clock import WallScheduler
    from repro.net.node import NetNode

    loop = asyncio.get_running_loop()
    transports = []
    for pid in range(genesis.n_replicas):
        node = NetNode(genesis, pid, WallScheduler(loop))
        transport = PeerTransport(
            genesis, pid, node.handle_message, metrics=node.net_metrics
        )
        await transport.start()
        node.attach_transport(transport)
        node.start()
        transports.append(transport)
    client = NetClient(genesis, first_req_id=0)
    assert await client.set("k", "v") >= 0
    await client.close()
    for transport in transports:
        await transport.stop()
    return asyncio.all_tasks() - {asyncio.current_task()}


def test_stop_and_close_leave_no_task_behind_on_the_virtual_loop():
    genesis = make_genesis(4, seed=28, name="stop", request_timeout=0.6)
    assert run_virtual(commit_and_stop(genesis)) == set()


def test_stop_and_close_leave_no_task_behind_over_tcp(caplog):
    genesis = make_genesis(4, seed=29, name="stop")
    with caplog.at_level(logging.DEBUG, logger="asyncio"):
        assert asyncio.run(commit_and_stop(genesis)) == set()
        gc.collect()
    logged = "\n".join(record.getMessage() for record in caplog.records)
    assert "Exception in callback" not in logged
    assert "Task was destroyed" not in logged


# -- The same wedges, deterministically: each scenario on the virtual loop --


def virtual_genesis(name, **knobs):
    return Genesis(
        name=name,
        seed=26,
        n_replicas=4,
        addresses=fixed_addresses(4, 49_000),
        request_timeout=0.5,
        **knobs,
    )


def test_a_client_that_stops_reading_loses_its_connection_on_the_virtual_loop():
    async def scenario():
        genesis = virtual_genesis("deaf-client")
        node = Endpoint(genesis, 0)
        await node.transport.start()
        client_pid = genesis.n_replicas
        loop = asyncio.get_running_loop()
        reader, writer = await asyncio.open_connection(*genesis.address_of(0))
        try:
            writer.write(
                encode_frame(genesis.hello_for(client_pid, 0, ROLE_CLIENT))
                + encode_frame(("get", 1))
            )
            await node.expect(1)
            reply = ("reply", "x" * (64 << 10))
            started = loop.time()
            while not node.counter("client_frames_dropped"):
                assert loop.time() - started < 6 * genesis.request_timeout
                node.transport.send(client_pid, reply)
                await asyncio.sleep(0.01)
            await asyncio.sleep(0)
            assert node.transport._clients == {}  # the connection is gone
            # It went once a drain had waited a request_timeout.
            assert loop.time() - started >= genesis.request_timeout
        finally:
            writer.close()
            await node.transport.stop()

    run_virtual(scenario())


def test_a_peer_that_stops_reading_is_redialed_and_holds_up_no_one_on_the_virtual_loop():
    async def scenario():
        genesis = virtual_genesis("deaf-peer")
        deaf_connections = []
        heard = []

        async def deaf(reader, writer):
            deaf_connections.append(writer)

        async def hearing(reader, writer):
            assembler = FrameAssembler()
            while data := await reader.read(1 << 16):
                heard.extend(assembler.feed(data))
            writer.close()

        servers = [
            await asyncio.start_server(deaf, *genesis.address_of(1)),
            await asyncio.start_server(hearing, *genesis.address_of(2)),
        ]
        sender = Endpoint(genesis, 0)
        await sender.transport.start()
        loop = asyncio.get_running_loop()
        try:
            bulk = "x" * (128 << 10)
            for i in range(60):  # 7.5 MiB to the deaf peer over 1.2 s
                sender.transport.send(1, ("bulk", i, bulk))
                sender.transport.send(2, ("small", i))
                await asyncio.sleep(0.02)
                assert heard[1:] == [("small", j) for j in range(i + 1)]
            started = loop.time()
            while len(deaf_connections) < 2:
                assert loop.time() - started < 6 * genesis.request_timeout
                sender.transport.send(1, ("bulk", -1, bulk))
                await asyncio.sleep(0.05)
            assert sender.counter("peer_reconnects") >= 1
        finally:
            await sender.transport.stop()
            for writer in deaf_connections:
                writer.close()
            for server in servers:
                server.close()
                await server.wait_closed()
            await asyncio.sleep(0.01)  # each server's connection sees the EOF

    run_virtual(scenario())


def test_a_killed_writer_loses_its_write_buffer_on_the_virtual_loop():
    from repro.net.clock import HIGH_WATER, KERNEL_BUFFER

    async def scenario():
        received = []
        ended = asyncio.Event()

        async def reader_side(reader, writer):
            while data := await reader.read(1 << 16):
                received.append(data)
            ended.set()
            writer.close()

        server = await asyncio.start_server(reader_side, "127.0.0.1", 49_100)
        _, writer = await asyncio.open_connection("127.0.0.1", 49_100)
        writer.write(b"k" * KERNEL_BUFFER + b"u" * (2 * HIGH_WATER))
        # Past the high-water mark: the rest sits in the writer's buffer.
        assert writer.transport.get_write_buffer_size() > HIGH_WATER
        writer.transport.abort()
        await ended.wait()
        server.close()
        await server.wait_closed()
        return b"".join(received)

    assert run_virtual(scenario()) == b"k" * KERNEL_BUFFER
