"""TCP client of a deployed cluster: writes, quorum reads, status probes.

The protocol — f+1 distinct acks for a ``set``, f+1 matching replies
for a ``get``, one reply per replica for a ``status`` probe, each
counted under the replica whose connection carried it — is
:class:`~repro.service.session.ClientSession`'s, the one the loopback
and simulated clients run too (docs/NET.md). This module is its TCP
driver: a session, one :class:`~repro.net.transport.Dialer` per
replica, and a future per operation.

Every request goes to **every** replica, encoded once, and silence past
``request_timeout`` sends it to every replica again. The replicas
decide among themselves which one proposes it (docs/SERVICE.md);
replica-side deduplication by ``(client, req_id)`` makes resubmissions
idempotent. Sending never waits on a replica, and a request sent while
a replica is still starting reaches it once a dial succeeds. Request
ids are drawn from a random base per client *instance*, so a restarted
client process cannot collide with its former self's ids; the
deterministic twin passes a fixed ``first_req_id`` instead. An optional
``link`` policy is asked about every request to every replica, as
:class:`~repro.net.transport.PeerTransport` asks about its sends.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
from typing import Any

from repro.errors import ReproError
from repro.net.genesis import Genesis
from repro.net.messages import ReadReply, ReadRequest, StatusReply, StatusRequest
from repro.net.transport import Dialer, through_link
from repro.net.wire import WireError, encode_frame
from repro.observability.registry import MODULE_NET, MetricsRegistry
from repro.process import LinkPolicy
from repro.service.session import ClientSession, PendingOp


class NetClientError(ReproError):
    """A client operation could not complete (exhausted retries)."""


def open_get(session: ClientSession, key: str, now: float = 0.0) -> PendingOp:
    """Open a quorum read of ``key`` on ``session``: f+1 distinct
    replicas returning the same ``(found, value)`` settle it."""
    request = ReadRequest(session.pid, session.next_req_id, key)
    return session.open("get", request, ReadReply, session.f + 1, now)


def open_status(session: ClientSession, now: float = 0.0) -> PendingOp:
    """Open a status probe on ``session``: it keeps one reply per
    replica and settles when every replica has answered."""
    request = StatusRequest(session.pid, session.next_req_id)
    return session.open("status", request, StatusReply, session.n_replicas, now)


class NetClient:
    """One client identity (pid ``n_replicas + index``) over TCP."""

    def __init__(
        self,
        genesis: Genesis,
        client_index: int = 0,
        *,
        first_req_id: int | None = None,
        link: LinkPolicy | None = None,
    ) -> None:
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
            first_req_id=(
                int.from_bytes(os.urandom(3), "big") << 24
                if first_req_id is None
                else first_req_id
            ),
        )
        self._link = link
        #: The links' ``net`` counters, each under its replica's pid.
        self.metrics = MetricsRegistry()
        scope = self.metrics.scope
        self._dialers = [
            Dialer(genesis, self.pid, r, self._on_reply, metrics=scope(MODULE_NET, r))
            for r in range(genesis.n_replicas)
        ]
        #: req_id -> the future its caller awaits.
        self._waiters: dict[int, asyncio.Future] = {}
        self.sets_issued = 0
        self.sets_completed = 0
        self.gets_completed = 0

    @property
    def resubmissions(self) -> int:
        return self.session.resubmissions

    def _on_reply(self, replica: int, message: Any) -> None:
        op = self.session.on_reply(replica, message)
        if op is not None:
            self._waiters[op.req_id].set_result(None)

    def _multicast(self, payload: Any) -> None:
        """Send ``payload`` to every replica, encoded once unless a link
        policy decides each replica's copies."""
        if self._link is None:
            frame = encode_frame(payload)
            for dialer in self._dialers:
                dialer.send(frame)
            return
        for replica in range(len(self._dialers)):
            through_link(
                self._link, self.pid, replica, payload,
                lambda copy, r=replica: self._send_copy(r, copy),
            )

    def _send_copy(self, replica: int, copy: Any) -> None:
        """Send one copy; drop and count one the codec refuses, as
        :class:`~repro.net.transport.PeerTransport` does."""
        try:
            frame = encode_frame(copy)
        except WireError:
            self.metrics.inc(MODULE_NET, "frames_unencodable", pid=replica)
            return
        self._dialers[replica].send(frame)

    async def close(self) -> None:
        """Hang up on every replica and wait for the dialers' tasks to end."""
        await asyncio.gather(*(dialer.close() for dialer in self._dialers))

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
        op = open_get(self.session, key, asyncio.get_running_loop().time())
        found, value = await self._run(
            op, f"get {key!r}", attempts=attempts, timeout=self.genesis.request_timeout
        )
        self.gets_completed += 1
        return found, value

    async def status(self, *, timeout: float = 1.0) -> dict[int, StatusReply]:
        """Best-effort per-replica status (whoever answers in ``timeout``)."""
        op = open_status(self.session, asyncio.get_running_loop().time())
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
    depends on. A set that uses up its attempts is issued but not
    completed: it is counted, not raised, and whoever judges the run
    sees the shortfall.
    """
    space = key_space or client.genesis.key_space
    loop = asyncio.get_running_loop()
    semaphore = asyncio.Semaphore(concurrency)
    latencies: list[float] = []

    async def one(i: int) -> None:
        async with semaphore:
            started = loop.time()
            try:
                await client.set(f"k{i % space}", f"{tag}{client.pid}-{i}")
            except NetClientError:
                return
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
