"""Transports of the net runtime: real TCP full mesh and in-memory loopback.

Both expose the same tiny surface a :class:`~repro.net.node.NetNode`
needs — ``send(dst, payload)`` plus a ``(src, message)`` delivery
callback — so every protocol-facing test runs on the deterministic
:class:`LoopbackHub` while deployments run :class:`PeerTransport` over
asyncio TCP. The loopback still pushes **every** payload through the
wire codec: what the tests exercise is byte-for-byte what the sockets
carry.

Every outbound TCP connection to a replica — a replica's to each peer,
a client's to each replica — is one :class:`Dialer` and follows its
rules (docs/NET.md). A frame dropped from a full backlog, or written
into a connection that breaks, is lost: nothing here retransmits, and
neither do the consensus engines (docs/FAULTS.md, "Byzantine over
loss"). A replica reads its peers' frames on the connections they
dialed and answers each client over the connection the client opened.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable

from repro.errors import ReproError
from repro.net.genesis import Genesis
from repro.net.messages import ROLE_CLIENT, ROLE_REPLICA, Hello
from repro.net.wire import (
    EnvelopeTable,
    FrameAssembler,
    WireError,
    decode_frame,
    encode_frame,
)
from repro.observability.registry import NULL_METRICS
from repro.sim.network import LinkPolicy

MessageHandler = Callable[[int, Any], None]

#: Backlog bound per outbound connection (frames, not bytes).
QUEUE_LIMIT = 512
#: Reconnect backoff: base * 2^attempt, capped.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
READ_CHUNK = 1 << 16


def backoff_delay(failures: int) -> float:
    """Seconds to wait before the next dial after ``failures`` in a row."""
    return min(BACKOFF_CAP, BACKOFF_BASE * (2 ** min(failures, 10)))


class TransportError(ReproError):
    """The transport was driven outside its contract."""


# ---------------------------------------------------------------------------
# Loopback: deterministic in-memory fabric with codec round-trips.
# ---------------------------------------------------------------------------


class LoopbackHub:
    """In-memory message fabric with the PeerTransport surface.

    Sends enqueue; delivery happens when the hub's zero-delay drain
    timer fires on the shared scheduler (or on an explicit
    :meth:`flush`). Deferring the drain keeps a multi-destination
    broadcast *atomic*: every copy is enqueued before any destination
    runs its handler, preserving the per-``(src, dst)`` FIFO order a
    real TCP connection gives — a synchronous drain would let the first
    recipient's whole downstream cascade run (and send) in between the
    copies, reordering one sender's messages at a third node. The drain
    itself is an iterative FIFO loop (never recursive), so message
    storms cannot blow the stack. Unregistered destinations drop
    (counted), modelling a killed process.

    ``link`` is the fabric's one point of variation: a
    :data:`~repro.sim.network.LinkPolicy` asked about every send as
    ``link(now, src, dst, payload)``. Latency, loss, duplication,
    partitions and corruption are all policies (docs/NET.md); a late
    copy is encoded at send time and joins the queue when its timer
    fires, so it escapes the FIFO exactly like a reordered TCP segment.
    """

    def __init__(self, scheduler: Any, link: LinkPolicy | None = None) -> None:
        self._scheduler = scheduler
        self._link = link
        self._handlers: dict[int, MessageHandler] = {}
        self._queue: deque[tuple[int, int, bytes]] = deque()
        self._dispatching = False
        self._drain_scheduled = False
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.frames_rejected = 0

    def register(self, pid: int, handler: MessageHandler) -> "LoopbackTransport":
        if pid in self._handlers:
            raise TransportError(f"pid {pid} already registered on the hub")
        self._handlers[pid] = handler
        return LoopbackTransport(self, pid)

    def unregister(self, pid: int) -> None:
        self._handlers.pop(pid, None)

    def submit(self, src: int, dst: int, payload: Any) -> None:
        deliveries = None
        if self._link is not None:
            deliveries = self._link(self._scheduler.now, src, dst, payload)
        if deliveries is None:
            deliveries = ((payload, 0.0),)
        for copy, delay in deliveries:
            try:
                frame = encode_frame(copy)
            except WireError:
                self.frames_rejected += 1
                continue
            if delay > 0.0:
                self._scheduler.schedule_after(
                    delay,
                    "loopback-hop",
                    lambda frame=frame: self._enqueue(src, dst, frame),
                )
            else:
                self._enqueue(src, dst, frame)

    def _enqueue(self, src: int, dst: int, frame: bytes) -> None:
        self._queue.append((src, dst, frame))
        if not self._dispatching and not self._drain_scheduled:
            self._drain_scheduled = True
            self._scheduler.schedule_after(0.0, "loopback-drain", self.flush)

    def flush(self) -> None:
        """Deliver everything queued (drains nested sends too)."""
        self._drain_scheduled = False
        if self._dispatching:
            return
        self._dispatching = True
        try:
            while self._queue:
                src, dst, frame = self._queue.popleft()
                handler = self._handlers.get(dst)
                if handler is None:
                    self.frames_dropped += 1
                    continue
                try:
                    message = decode_frame(frame)
                except WireError:
                    self.frames_rejected += 1
                    continue
                self.frames_delivered += 1
                handler(src, message)
        finally:
            self._dispatching = False


class LoopbackTransport:
    """One endpoint's sending handle onto a :class:`LoopbackHub`."""

    __slots__ = ("_hub", "pid")

    def __init__(self, hub: LoopbackHub, pid: int) -> None:
        self._hub = hub
        self.pid = pid

    def send(self, dst: int, payload: Any) -> None:
        self._hub.submit(self.pid, dst, payload)

    def close(self) -> None:
        self._hub.unregister(self.pid)


# ---------------------------------------------------------------------------
# Real sockets.
# ---------------------------------------------------------------------------


class Dialer:
    """The one outbound TCP connection from ``pid`` to ``replica``.

    * FIFO, and the authenticated hello (role from ``pid``) goes first;
    * connected with nothing waiting, :meth:`send` writes at once;
      otherwise the frame joins a backlog of :data:`QUEUE_LIMIT` frames,
      and a full one drops its oldest (``frames_dropped``);
    * a waiting frame and no back-off running start a dial;
    * a dial or a drain not done within ``request_timeout``, or an EOF
      or error on read, closes the connection (``peer_reconnects``) and
      backs off :func:`backoff_delay`; frames still waiting dial again
      after it: a dead replica costs one dial per back-off period;
    * one read loop per connection hands ``handler(replica, message)``
      each frame the replica writes.
    """

    def __init__(
        self,
        genesis: Genesis,
        pid: int,
        replica: int,
        handler: MessageHandler,
        *,
        metrics: Any = NULL_METRICS,
    ) -> None:
        self._timeout = genesis.request_timeout
        self._address = genesis.address_of(replica)
        self._replica = replica
        self._handler = handler
        self._metrics = metrics
        role = ROLE_REPLICA if pid < genesis.n_replicas else ROLE_CLIENT
        self._hello = encode_frame(genesis.hello_for(pid, replica, role))
        self._backlog: deque[bytes] = deque()
        self._writer: asyncio.StreamWriter | None = None
        self._reading: asyncio.Task | None = None  # holds the read loop alive
        #: The dial, back-off or drain in progress; frames wait while it runs.
        self._busy: asyncio.Task | None = None
        self._failures = 0
        self._retry_at = 0.0
        self._closed = False

    def send(self, frame: bytes) -> None:
        writer = self._writer
        if writer is not None and self._busy is None:
            writer.write(frame)
            if not writer.transport.get_write_buffer_size():
                return
        else:
            if len(self._backlog) >= QUEUE_LIMIT:
                # Bounded memory beats completeness: drop the *oldest* frame.
                self._backlog.popleft()
                self._metrics.inc("frames_dropped")
            self._backlog.append(frame)
        if self._busy is None and not self._closed:
            self._busy = asyncio.get_running_loop().create_task(self._carry())

    async def _carry(self) -> None:
        """Back off, dial, drain and write the backlog until it is empty."""
        loop = asyncio.get_running_loop()
        try:
            while (writer := self._writer) is not None or self._backlog:
                if writer is None and loop.time() < self._retry_at:
                    await asyncio.sleep(self._retry_at - loop.time())
                elif writer is None:
                    try:
                        reader, writer = await asyncio.wait_for(
                            asyncio.open_connection(*self._address), self._timeout
                        )
                    except (OSError, asyncio.TimeoutError):
                        self._lost(None)
                        continue
                    writer.write(self._hello)
                    self._metrics.inc("peer_connects")
                    self._failures = 0
                    self._writer = writer
                    self._reading = loop.create_task(self._read(reader, writer))
                else:
                    try:
                        await asyncio.wait_for(writer.drain(), self._timeout)
                    except (OSError, asyncio.TimeoutError):
                        self._lost(writer)
                        continue
                    if not self._backlog:
                        return
                    writer.writelines(self._backlog)
                    self._backlog.clear()
        finally:
            self._busy = None

    async def _read(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assembler = FrameAssembler()
        try:
            while data := await reader.read(READ_CHUNK):
                for message in assembler.feed(data):
                    self._handler(self._replica, message)
        except (OSError, WireError):
            pass
        self._lost(writer)

    def _lost(self, writer: asyncio.StreamWriter | None) -> None:
        """The dial (``None``) or ``writer``'s connection failed: close it
        (which ends its read loop too) and back off, once."""
        if self._writer is writer:
            if writer is not None:
                writer.transport.abort()
                self._writer = None
            self._metrics.inc("peer_reconnects")
            self._failures += 1
            delay = backoff_delay(self._failures)
            self._retry_at = asyncio.get_running_loop().time() + delay

    def close(self) -> None:
        self._closed = True
        if self._busy is not None:
            self._busy.cancel()
        if self._writer is not None:
            self._writer.transport.abort()  # ends the read loop too
            self._writer = None


class PeerTransport:
    """Authenticated full-mesh TCP transport for one replica.

    ``link`` is the :data:`~repro.sim.network.LinkPolicy` the in-memory
    fabrics take, asked (``now`` = the loop's clock) about every send to
    another replica, so a fault plan's link faults hit real TCP with no
    privileged machinery. A copy with a positive delay is sent through
    ``loop.call_later`` and overtakes in-flight traffic.
    """

    def __init__(
        self,
        genesis: Genesis,
        pid: int,
        handler: MessageHandler,
        *,
        metrics: Any = NULL_METRICS,
        link: LinkPolicy | None = None,
    ) -> None:
        genesis.address_of(pid)  # raises ConfigurationError on a bad pid
        self._genesis = genesis
        self._pid = pid
        self._handler = handler
        self._metrics = metrics
        self._link = link
        self._dialers = {
            peer: Dialer(genesis, pid, peer, self._unexpected, metrics=metrics)
            for peer in range(genesis.n_replicas)
            if peer != pid
        }
        self._accepted: set[asyncio.StreamWriter] = set()
        self._clients: dict[int, asyncio.StreamWriter] = {}
        #: Client connection -> the wait for its send buffer to drain.
        self._drains: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._server: asyncio.AbstractServer | None = None
        self.bound_port: int | None = None
        # This replica's signed envelopes, shared by every connection:
        # a repeat decodes to the object already held, a broadcast
        # encodes once (repro.net.wire.EnvelopeTable).
        self._envelopes = EnvelopeTable(metrics)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        host, port = self._genesis.address_of(self._pid)
        self._server = await asyncio.start_server(self._accept, host, port)
        self.bound_port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for dialer in self._dialers.values():
            dialer.close()
        # Server.close() only stops *listening*; established inbound
        # connections keep reading unless we hang up on each — a peer
        # that dialed us must see the drop to start its reconnect loop.
        for writer in list(self._accepted):
            writer.close()
        self._accepted.clear()
        self._clients.clear()

    # -- sending -----------------------------------------------------------

    def send(self, dst: int, payload: Any) -> None:
        """Send ``payload`` to ``dst``; the link policy decides sends to peers."""
        if (
            self._link is not None
            and dst != self._pid
            and dst < self._genesis.n_replicas
        ):
            loop = asyncio.get_running_loop()
            copies = self._link(loop.time(), self._pid, dst, payload)
            if copies is not None:
                for copy, delay in copies:
                    if delay > 0:
                        loop.call_later(delay, self._send_now, dst, copy)
                    else:
                        self._send_now(dst, copy)
                return
        self._send_now(dst, payload)

    def _send_now(self, dst: int, payload: Any) -> None:
        """Encode ``payload`` and hand it to ``dst``'s dialer or socket."""
        try:
            frame = encode_frame(payload, table=self._envelopes)
        except WireError:
            self._metrics.inc("frames_unencodable")
            return
        self._metrics.inc("frames_sent")
        self._metrics.inc("bytes_sent", len(frame))
        if dst == self._pid:
            # Self-delivery still round-trips the codec (a node talks to
            # itself exactly like to a peer) but stays in-process.
            try:
                message = decode_frame(frame, table=self._envelopes)
            except WireError:
                self._metrics.inc("frames_rejected")
                return
            asyncio.get_running_loop().call_soon(
                self._dispatch, self._pid, message
            )
            return
        if dst < self._genesis.n_replicas:
            self._dialers[dst].send(frame)
            return
        writer = self._clients.get(dst)
        if writer is None or writer.is_closing():
            self._metrics.inc("client_frames_dropped")
            return
        writer.write(frame)
        if writer.transport.get_write_buffer_size() and writer not in self._drains:
            self._drains[writer] = asyncio.get_running_loop().create_task(
                self._drain_replies(writer)
            )

    async def _drain_replies(self, writer: asyncio.StreamWriter) -> None:
        """The dialer's drain rule: a client that stops reading is cut off."""
        try:
            await asyncio.wait_for(writer.drain(), self._genesis.request_timeout)
        except (OSError, asyncio.TimeoutError):
            self._metrics.inc("client_frames_dropped")
            writer.transport.abort()
        finally:
            del self._drains[writer]

    # -- inbound connections ----------------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assembler = FrameAssembler(table=self._envelopes, metrics=self._metrics)
        peer: int | None = None
        self._accepted.add(writer)
        try:
            while data := await reader.read(READ_CHUNK):
                try:
                    messages = assembler.feed(data)
                except WireError:
                    self._metrics.inc("frames_rejected")
                    return
                for message in messages:
                    if peer is None:
                        # First frame must be a valid Hello; anything
                        # else (or a bad MAC) closes the connection.
                        if not isinstance(message, Hello) or not (
                            self._genesis.hello_valid(message, self._pid)
                        ):
                            self._metrics.inc("hello_rejected")
                            return
                        peer = message.peer
                        self._metrics.inc("hello_accepted")
                        if peer >= self._genesis.n_replicas:
                            self._clients[peer] = writer
                        continue
                    self._metrics.inc("frames_received")
                    self._dispatch(peer, message)
        except OSError:
            return
        finally:
            self._accepted.discard(writer)
            if peer is not None and self._clients.get(peer) is writer:
                del self._clients[peer]
            writer.close()

    def _unexpected(self, src: int, message: Any) -> None:
        """Peers never write on a connection this replica dialed."""
        self._metrics.inc("frames_rejected")

    def _dispatch(self, src: int, message: Any) -> None:
        try:
            self._handler(src, message)
        except Exception:
            # A handler bug on one message must not kill the reader task
            # for the whole connection; count it and keep serving.
            self._metrics.inc("handler_errors")

