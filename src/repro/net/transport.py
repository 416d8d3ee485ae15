"""The transport of the net runtime: an authenticated TCP full mesh.

:class:`PeerTransport` gives a :class:`~repro.net.node.NetNode` the
tiny surface it needs — ``send(dst, payload)`` plus a ``(src, message)``
delivery callback — over asyncio streams. Deployments run it on
sockets; the deterministic twin runs the same class on
:class:`~repro.net.clock.VirtualTimeLoop`'s in-memory streams, so every
protocol-facing test exercises byte-for-byte what the sockets carry.

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
from functools import partial
from typing import Any, Callable

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
from repro.process import LinkPolicy

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

    def abort(self) -> None:
        """Hang up (which ends the read loop too) and dial no more."""
        self._closed = True
        if self._busy is not None:
            self._busy.cancel()
        if self._writer is not None:
            self._writer.transport.abort()
            self._writer = None

    async def close(self) -> None:
        """:meth:`abort`, and return once this dialer's tasks have ended."""
        self.abort()
        tasks = [task for task in (self._busy, self._reading) if task is not None]
        await asyncio.gather(*tasks, return_exceptions=True)


def through_link(
    link: LinkPolicy, src: int, dst: int, payload: Any, send: Callable[[Any], None]
) -> None:
    """Hand ``payload`` to ``send`` as ``link`` decides (``now`` = the
    loop's clock): each copy now, or through ``loop.call_later`` when it
    has a positive delay, so it overtakes in-flight traffic."""
    loop = asyncio.get_running_loop()
    copies = link(loop.time(), src, dst, payload)
    for copy, delay in ((payload, 0.0),) if copies is None else copies:
        if delay > 0:
            loop.call_later(delay, send, copy)
        else:
            send(copy)


class PeerTransport:
    """Authenticated full-mesh TCP transport for one replica.

    ``link`` is the :data:`~repro.process.LinkPolicy` the simulator's
    network takes too, asked about every send to a peer or a client, so
    a fault plan's link faults hit real TCP with no privileged machinery.
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
        #: Accepted connection -> the task reading it.
        self._accepted: dict[asyncio.StreamWriter, asyncio.Task] = {}
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
        self.bound_port = port

    def abort(self) -> None:
        """Stop listening and drop every connection at once, as a killed
        process does; peers see each drop and start to redial."""
        if self._server is not None:
            self._server.close()
        for dialer in self._dialers.values():
            dialer.abort()
        for writer in self._accepted:
            writer.transport.abort()

    async def stop(self) -> None:
        """:meth:`abort`, then wait until every task this transport
        started has ended: a stopped transport leaves nothing running."""
        self.abort()
        if self._server is not None:
            await self._server.wait_closed()
        for drain in self._drains.values():
            drain.cancel()
        await asyncio.gather(
            *(dialer.close() for dialer in self._dialers.values()),
            *self._drains.values(),
            # Not cancelled: each ends on its connection's EOF.
            *self._accepted.values(),
            return_exceptions=True,
        )

    # -- sending -----------------------------------------------------------

    def send(self, dst: int, payload: Any) -> None:
        """Send ``payload`` to ``dst``; the link policy decides all but self-sends."""
        if self._link is None or dst == self._pid:
            self._send_now(dst, payload)
        else:
            through_link(
                self._link, self._pid, dst, payload, partial(self._send_now, dst)
            )

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
        if self._server is not None and not self._server.is_serving():
            writer.transport.abort()  # accepted as the transport stopped
            return
        self._accepted[writer] = asyncio.current_task()
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
            del self._accepted[writer]
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

