"""TCP client of a deployed cluster: writes, quorum reads, status probes.

The client is *outside* the trust boundary of any single replica, so it
never believes one reply (docs/NET.md):

* ``set`` completes once **f+1 distinct replicas** acknowledge the
  commit — at least one of them is correct, so the command is durably
  in the total order;
* ``get`` (the read-only path) completes once **f+1 distinct replicas**
  return the *same* ``(found, value)`` answer from their committed
  state — again at least one correct replica vouches for it, and a
  correct replica only reports committed state;
* ``status`` is an observability probe (no quorum): it reports what
  each replica *claims*, and the orchestrator cross-checks the claims
  against each other (digest convergence, exactly-once counts).

Submission mirrors the simulator's clients: every request goes to
**every** replica, encoded once, and silence past ``request_timeout``
sends it to every replica again. The replicas decide among themselves
which one proposes it (docs/SERVICE.md); replica-side deduplication by
``(client, req_id)`` makes resubmissions idempotent. Sending never
waits on a replica: dials and drains run as tasks of their own, each
bounded by ``request_timeout``. A replica that refuses a dial, hangs
it, or stops reading is redialed no sooner than the transport's capped
backoff allows, so a dead replica costs a connection attempt per
backoff period, not one per request. Request ids are drawn from a
random base per client *instance*, so a restarted client process
cannot collide with its former self's ids.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any

from repro.errors import ReproError
from repro.net.genesis import Genesis
from repro.net.messages import (
    ROLE_CLIENT,
    ReadReply,
    ReadRequest,
    StatusReply,
    StatusRequest,
)
from repro.net.transport import backoff_delay
from repro.net.wire import FrameAssembler, WireError, encode_frame
from repro.replication.kvstore import Command
from repro.service.messages import ClientReply, ClientRequest

READ_CHUNK = 1 << 16


class NetClientError(ReproError):
    """A client operation could not complete (exhausted retries)."""


class _PendingOp:
    """Reply accumulator: distinct-replica counting, optional matching."""

    __slots__ = ("need", "match", "replies", "future")

    def __init__(self, need: int, match: bool) -> None:
        self.need = need
        self.match = match
        self.replies: dict[int, Any] = {}
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()

    def add(self, replica: int, value: Any) -> None:
        if self.future.done():
            return
        self.replies[replica] = value
        if not self.match:
            if len(self.replies) >= self.need:
                self.future.set_result(value)
            return
        groups: dict[str, tuple[int, Any]] = {}
        for candidate in self.replies.values():
            key = repr(candidate)
            count, _ = groups.get(key, (0, candidate))
            groups[key] = (count + 1, candidate)
        for count, candidate in groups.values():
            if count >= self.need:
                self.future.set_result(candidate)
                return


class NetClient:
    """One client identity (pid ``n_replicas + index``) over TCP."""

    def __init__(self, genesis: Genesis, client_index: int = 0) -> None:
        genesis.validate()
        if not 0 <= client_index < genesis.max_clients:
            raise NetClientError(
                f"client index {client_index} outside 0.."
                f"{genesis.max_clients - 1}"
            )
        self.genesis = genesis
        self.pid = genesis.n_replicas + client_index
        self.f = genesis.service_config().params().f
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._readers: dict[int, asyncio.Task] = {}
        #: replica -> the dial in progress, and the frames it will send.
        self._dials: dict[int, asyncio.Task] = {}
        self._queued: dict[int, list[bytes]] = {}
        #: replica -> the wait for its connection's send buffer to empty.
        self._drains: dict[int, asyncio.Task] = {}
        #: replica -> (failures in a row, loop time of the next dial).
        self._backoff: dict[int, tuple[int, float]] = {}
        self._pending: dict[tuple[str, int], _PendingOp] = {}
        self._req_base = int.from_bytes(os.urandom(3), "big") << 24
        self._req_seq = 0
        self.sets_completed = 0
        self.gets_completed = 0
        self.resubmissions = 0

    # -- connections -------------------------------------------------------

    async def _dial(self, replica: int) -> None:
        """Connect to ``replica`` (bounded by ``request_timeout``), say
        hello and send the frames queued meanwhile; on failure drop them
        and back off."""
        self._drop_connection(replica)
        host, port = self.genesis.address_of(replica)
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), self.genesis.request_timeout
            )
        except (OSError, asyncio.TimeoutError):
            self._unreachable(replica)
            return
        finally:
            self._dials.pop(replica, None)
            frames = self._queued.pop(replica, [])
        self._backoff.pop(replica, None)
        self._writers[replica] = writer
        self._readers[replica] = asyncio.get_running_loop().create_task(
            self._read_loop(replica, reader)
        )
        writer.write(
            encode_frame(self.genesis.hello_for(self.pid, replica, ROLE_CLIENT))
        )
        for frame in frames:
            self._write(replica, writer, frame)

    def _unreachable(self, replica: int) -> None:
        failures = self._backoff.get(replica, (0, 0.0))[0] + 1
        self._backoff[replica] = (
            failures,
            asyncio.get_running_loop().time() + backoff_delay(failures),
        )

    def _write(self, replica: int, writer: asyncio.StreamWriter, frame: bytes) -> None:
        writer.write(frame)
        if writer.transport.get_write_buffer_size() and replica not in self._drains:
            self._drains[replica] = asyncio.get_running_loop().create_task(
                self._drain(replica, writer)
            )

    async def _drain(self, replica: int, writer: asyncio.StreamWriter) -> None:
        """Wait for what ``writer`` buffered to reach the replica; one
        that does not take it within ``request_timeout`` — it stopped
        reading — is dropped and backed off like a refused dial."""
        try:
            await asyncio.wait_for(writer.drain(), self.genesis.request_timeout)
        except (OSError, asyncio.TimeoutError):
            if self._writers.get(replica) is writer:
                self._drop_connection(replica)
                self._unreachable(replica)
        finally:
            self._drains.pop(replica, None)

    def _drop_connection(self, replica: int) -> None:
        writer = self._writers.pop(replica, None)
        if writer is not None:
            try:
                writer.close()
            except Exception:
                pass
        task = self._readers.pop(replica, None)
        if task is not None and task is not asyncio.current_task():
            task.cancel()

    async def _read_loop(self, replica: int, reader: asyncio.StreamReader) -> None:
        assembler = FrameAssembler()
        try:
            while True:
                data = await reader.read(READ_CHUNK)
                if not data:
                    return
                for message in assembler.feed(data):
                    self._on_message(replica, message)
        except (OSError, ConnectionError, WireError):
            return
        finally:
            if self._readers.get(replica) is asyncio.current_task():
                self._drop_connection(replica)

    def _multicast(self, payload: Any) -> None:
        """Send ``payload`` to every reachable replica, encoded once.

        Nothing here waits on a replica: a frame goes into each open
        connection's buffer, or joins the dial in progress, or starts a
        dial; a replica backing off is skipped. Dials and drains run as
        tasks of their own, so a replica that hangs a dial or stops
        reading holds up no other replica and no caller.
        """
        frame = encode_frame(payload)
        for replica in range(self.genesis.n_replicas):
            writer = self._writers.get(replica)
            if writer is not None and not writer.is_closing():
                self._write(replica, writer, frame)
            elif replica in self._dials:
                self._queued[replica].append(frame)
            else:
                loop = asyncio.get_running_loop()
                if loop.time() >= self._backoff.get(replica, (0, 0.0))[1]:
                    self._queued[replica] = [frame]
                    self._dials[replica] = loop.create_task(self._dial(replica))

    async def close(self) -> None:
        for task in [*self._dials.values(), *self._drains.values()]:
            task.cancel()
        for replica in list(self._writers):
            self._drop_connection(replica)
        await asyncio.sleep(0)

    # -- reply plumbing ----------------------------------------------------

    def _on_message(self, replica: int, message: Any) -> None:
        if isinstance(message, ClientReply) and message.client == self.pid:
            op = self._pending.get(("reply", message.req_id))
            if op is not None:
                op.add(message.replica, message.slot)
        elif isinstance(message, ReadReply) and message.client == self.pid:
            op = self._pending.get(("read", message.req_id))
            if op is not None:
                op.add(message.replica, (message.found, message.value))
        elif isinstance(message, StatusReply) and message.client == self.pid:
            op = self._pending.get(("status", message.req_id))
            if op is not None:
                op.add(message.replica, message)

    def _next_req_id(self) -> int:
        self._req_seq += 1
        return self._req_base + self._req_seq

    async def _await_quorum(
        self,
        kind: str,
        req_id: int,
        op: _PendingOp,
        request: Any,
        *,
        attempts: int,
        what: str,
    ) -> Any:
        """Multicast ``request`` until the op's future resolves, again on
        every ``request_timeout`` of silence."""
        self._pending[(kind, req_id)] = op
        try:
            for attempt in range(attempts):
                if attempt:
                    self.resubmissions += 1
                self._multicast(request)
                try:
                    return await asyncio.wait_for(
                        asyncio.shield(op.future),
                        self.genesis.request_timeout,
                    )
                except asyncio.TimeoutError:
                    continue
            raise NetClientError(
                f"{what} got {len(op.replies)} of {op.need} needed replies "
                f"after {attempts} attempts"
            )
        finally:
            self._pending.pop((kind, req_id), None)

    # -- operations --------------------------------------------------------

    async def set(self, key: str, value: Any, *, attempts: int = 40) -> int:
        """Commit ``set key=value``; returns the slot of the f+1th ack."""
        req_id = self._next_req_id()
        request = ClientRequest(
            client=self.pid, req_id=req_id, command=Command("set", key, value)
        )
        op = _PendingOp(need=self.f + 1, match=False)
        slot = await self._await_quorum(
            "reply", req_id, op, request,
            attempts=attempts, what=f"set {key!r}",
        )
        self.sets_completed += 1
        return slot

    async def get(self, key: str, *, attempts: int = 40) -> tuple[bool, Any]:
        """Read ``key`` from committed state: f+1 matching distinct replies."""
        req_id = self._next_req_id()
        request = ReadRequest(client=self.pid, req_id=req_id, key=key)
        op = _PendingOp(need=self.f + 1, match=True)
        found, value = await self._await_quorum(
            "read", req_id, op, request,
            attempts=attempts, what=f"get {key!r}",
        )
        self.gets_completed += 1
        return found, value

    async def status(self, *, timeout: float = 1.0) -> dict[int, StatusReply]:
        """Best-effort per-replica status (whoever answers in ``timeout``)."""
        req_id = self._next_req_id()
        op = _PendingOp(need=self.genesis.n_replicas, match=False)
        self._pending[("status", req_id)] = op
        try:
            self._multicast(StatusRequest(client=self.pid, req_id=req_id))
            try:
                await asyncio.wait_for(asyncio.shield(op.future), timeout)
            except asyncio.TimeoutError:
                pass
            return dict(op.replies)
        finally:
            self._pending.pop(("status", req_id), None)

    async def workload(
        self,
        count: int,
        *,
        concurrency: int = 8,
        key_space: int | None = None,
        tag: str = "w",
    ) -> dict[str, Any]:
        """Issue ``count`` sets with bounded concurrency; return stats."""
        space = key_space or self.genesis.key_space
        loop = asyncio.get_running_loop()
        semaphore = asyncio.Semaphore(concurrency)
        latencies: list[float] = []

        async def one(i: int) -> None:
            async with semaphore:
                started = loop.time()
                await self.set(f"k{i % space}", f"{tag}{self.pid}-{i}")
                latencies.append(loop.time() - started)

        await asyncio.gather(*(one(i) for i in range(count)))
        latencies.sort()
        return {
            "issued": count,
            "completed": len(latencies),
            "resubmissions": self.resubmissions,
            "latency_p50": latencies[len(latencies) // 2] if latencies else 0.0,
            "latency_max": latencies[-1] if latencies else 0.0,
        }
