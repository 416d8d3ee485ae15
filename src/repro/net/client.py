"""TCP client of a deployed cluster: writes, quorum reads, status probes.

The protocol — f+1 distinct acks for a ``set``, f+1 matching replies
for a ``get``, one reply per replica for a ``status`` probe, each
counted under the replica whose connection carried it — is
:class:`~repro.service.session.ClientSession`'s, the one the loopback
and simulated clients run too (docs/NET.md). This module is its TCP
driver: connections, sending, and a future per operation.

Every request goes to **every** replica, encoded once, and silence past
``request_timeout`` sends it to every replica again. The replicas
decide among themselves which one proposes it (docs/SERVICE.md);
replica-side deduplication by ``(client, req_id)`` makes resubmissions
idempotent. Sending never waits on a replica: dials and drains run as
tasks of their own, each bounded by ``request_timeout``. A replica that
refuses a dial, hangs it, or stops reading is redialed no sooner than
the transport's capped backoff allows, so a dead replica costs a
connection attempt per backoff period, not one per request. Request ids
are drawn from a random base per client *instance*, so a restarted
client process cannot collide with its former self's ids.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
from typing import Any

from repro.errors import ReproError
from repro.net.genesis import Genesis
from repro.net.messages import ROLE_CLIENT, StatusReply
from repro.net.transport import backoff_delay
from repro.net.wire import FrameAssembler, WireError, encode_frame
from repro.service.session import ClientSession, PendingOp

READ_CHUNK = 1 << 16


class NetClientError(ReproError):
    """A client operation could not complete (exhausted retries)."""


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
        self.session = ClientSession(
            self.pid,
            genesis.n_replicas,
            genesis.service_config().params().f,
            first_req_id=int.from_bytes(os.urandom(3), "big") << 24,
        )
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._readers: dict[int, asyncio.Task] = {}
        #: replica -> the dial in progress, and the frames it will send.
        self._dials: dict[int, asyncio.Task] = {}
        self._queued: dict[int, list[bytes]] = {}
        #: replica -> the wait for its connection's send buffer to empty.
        self._drains: dict[int, asyncio.Task] = {}
        #: replica -> (failures in a row, loop time of the next dial).
        self._backoff: dict[int, tuple[int, float]] = {}
        #: req_id -> the future its caller awaits.
        self._waiters: dict[int, asyncio.Future] = {}
        self.sets_issued = 0
        self.sets_completed = 0
        self.gets_completed = 0

    @property
    def resubmissions(self) -> int:
        return self.session.resubmissions

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
                    op = self.session.on_reply(replica, message)
                    if op is not None:
                        self._waiters[op.req_id].set_result(None)
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

    # -- operations --------------------------------------------------------

    async def _run(
        self, op: PendingOp, what: str, *, attempts: int, timeout: float
    ) -> Any:
        """Multicast ``op``'s request until the session settles it, again
        after every ``timeout`` of silence; returns its result, or raises
        once ``attempts`` sends have left it unsettled."""
        waiter = asyncio.get_running_loop().create_future()
        self._waiters[op.req_id] = waiter
        try:
            for _ in range(attempts):
                request = self.session.submit(op.req_id)
                if request is None:
                    break
                self._multicast(request)
                try:
                    await asyncio.wait_for(asyncio.shield(waiter), timeout)
                    break
                except asyncio.TimeoutError:
                    continue
        finally:
            del self._waiters[op.req_id]
            self.session.abandon(op.req_id)
        if not op.done:
            raise NetClientError(
                f"{what} got {len(op.replies)} of {op.need} needed replies "
                f"after {attempts} attempts"
            )
        return op.result

    async def set(self, key: str, value: Any, *, attempts: int = 40) -> int:
        """Commit ``set key=value``; returns the slot of the f+1th ack."""
        op = self.session.set(key, value, asyncio.get_running_loop().time())
        self.sets_issued += 1
        slot = await self._run(
            op, f"set {key!r}", attempts=attempts, timeout=self.genesis.request_timeout
        )
        self.sets_completed += 1
        return slot

    async def get(self, key: str, *, attempts: int = 40) -> tuple[bool, Any]:
        """Read ``key`` from committed state: f+1 matching distinct replies."""
        op = self.session.get(key, asyncio.get_running_loop().time())
        found, value = await self._run(
            op, f"get {key!r}", attempts=attempts, timeout=self.genesis.request_timeout
        )
        self.gets_completed += 1
        return found, value

    async def status(self, *, timeout: float = 1.0) -> dict[int, StatusReply]:
        """Best-effort per-replica status (whoever answers in ``timeout``)."""
        op = self.session.status(asyncio.get_running_loop().time())
        with contextlib.suppress(NetClientError):
            await self._run(op, "status", attempts=1, timeout=timeout)
        return dict(op.replies)

async def workload(
    client: Any,
    count: int,
    *,
    concurrency: int = 8,
    key_space: int | None = None,
    tag: str = "w",
) -> dict[str, Any]:
    """Issue ``count`` sets through ``client`` — a :class:`NetClient` or a
    :class:`~repro.shard.client.ShardedNetClient`, whose stats add
    ``sets_by_shard`` — with bounded concurrency; return stats.

    Keys cycle through ``k0..k{space-1}`` whatever the shard count, so
    the offered load is identical — the property the scaling benchmark
    depends on.
    """
    space = key_space or client.genesis.key_space
    loop = asyncio.get_running_loop()
    semaphore = asyncio.Semaphore(concurrency)
    latencies: list[float] = []

    async def one(i: int) -> None:
        async with semaphore:
            started = loop.time()
            await client.set(f"k{i % space}", f"{tag}{client.pid}-{i}")
            latencies.append(loop.time() - started)

    await asyncio.gather(*(one(i) for i in range(count)))
    latencies.sort()
    stats = {
        "issued": count,
        "completed": len(latencies),
        "resubmissions": client.resubmissions,
        "latency_p50": latencies[len(latencies) // 2] if latencies else 0.0,
        "latency_max": latencies[-1] if latencies else 0.0,
    }
    by_shard = getattr(client, "sets_by_shard", None)
    if by_shard is not None:
        stats["sets_by_shard"] = dict(sorted(by_shard.items()))
    return stats
