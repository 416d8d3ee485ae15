"""Tests: mid-frame connection resets against the real-socket transport.

The chaos hook :meth:`ResettablePeerTransport.inject_reset` aborts an
established outbound peer connection, optionally flushing garbage bytes
first — the userspace analogue of an RST landing mid-frame. The
transport contract under that fault (docs/FAULTS.md): the acceptor's
:class:`FrameAssembler` rejects the truncated garbage as a
``WireError`` (counted, never raised into the event loop), the dialer
re-establishes the link under capped exponential backoff, and traffic
flows again — no partial frame survives into the reconnected stream.
"""

from __future__ import annotations

import asyncio

from repro.net.cluster import make_genesis
from repro.net.transport import PeerTransport
from repro.observability.registry import MODULE_NET, MetricsRegistry


class ResettablePeerTransport(PeerTransport):
    """A peer transport that can tear down its own outbound connections."""

    def inject_reset(self, dst: int, *, partial: bytes = b"") -> bool:
        """Tear down the established outbound connection to ``dst``.

        ``partial`` bytes are written first (un-drained), so the peer's
        assembler is left holding a truncated or garbage frame when the
        connection aborts — the closest userspace analogue of an RST
        mid-frame. Returns ``False`` when no connection to ``dst`` is
        currently established.
        """
        writer = self._dialers[dst]._writer
        if writer is None or writer.is_closing():
            return False
        if partial:
            try:
                writer.write(partial)
            except (OSError, RuntimeError):
                pass
        writer.transport.abort()
        return True


class Endpoint:
    """One transport plus an inbox and a per-test metrics registry."""

    def __init__(self, genesis, pid, transport_cls=PeerTransport, **kwargs):
        self.pid = pid
        self.inbox: list[tuple[int, object]] = []
        self.arrived = asyncio.Event()
        self.registry = MetricsRegistry()
        self.transport = transport_cls(
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


def test_reset_mid_frame_is_counted_and_reconnected():
    async def scenario():
        genesis = make_genesis(4, seed=31, name="reconnect")
        # The full mesh is up, so the dialer's reconnect counter can only
        # move when an *established* connection drops — the reset below.
        nodes = [
            Endpoint(genesis, 0, transport_cls=ResettablePeerTransport),
            Endpoint(genesis, 1),
            Endpoint(genesis, 2),
            Endpoint(genesis, 3),
        ]
        dialer, acceptor = nodes[0], nodes[1]
        for node in nodes:
            await node.transport.start()
        try:
            # Establish the 0 -> 1 connection and prove delivery.
            dialer.transport.send(1, ("before", 0))
            await acceptor.expect(1)
            assert acceptor.inbox == [(0, ("before", 0))]

            # Abort it mid-frame: 64 bytes of bad-magic garbage reach the
            # acceptor's assembler just before the transport dies.
            assert dialer.transport.inject_reset(1, partial=b"\xff" * 64)

            # The acceptor rejects the partial frame as a WireError —
            # counted, connection dropped, reader task intact.
            deadline = asyncio.get_running_loop().time() + 8.0
            while acceptor.counter("frames_rejected") < 1:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.05)

            # The dialer only notices on its next write; keep sending
            # fresh messages until one crosses the re-established link.
            # (A frame in flight at the instant of the reset is lost —
            # the reliable-channel layer above retransmits state, the
            # transport itself does not.)
            sent = 0
            deadline = asyncio.get_running_loop().time() + 10.0
            while len(acceptor.inbox) < 2:
                dialer.transport.send(1, ("after", sent))
                sent += 1
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.2)

            # Reconnected: fresh traffic arrived, well-formed, and no
            # fragment of the garbage leaked into the decoded stream.
            assert dialer.counter("peer_reconnects") >= 1
            assert dialer.counter("peer_connects") >= 2
            for src, message in acceptor.inbox[1:]:
                assert src == 0
                assert message[0] == "after"

            # The acceptor is fully alive: the reverse direction works.
            acceptor.transport.send(0, ("pong", 1))
            await dialer.expect(1)
            assert dialer.inbox == [(1, ("pong", 1))]
        finally:
            for node in nodes:
                await node.transport.stop()

    asyncio.run(scenario())


def test_reset_without_an_established_connection_reports_false():
    async def scenario():
        genesis = make_genesis(4, seed=32, name="no-conn")
        lone = Endpoint(genesis, 0, transport_cls=ResettablePeerTransport)
        await lone.transport.start()
        try:
            # Nothing was ever sent, so no outbound connection exists.
            assert lone.transport.inject_reset(1) is False
        finally:
            await lone.transport.stop()

    asyncio.run(scenario())
