"""The six workloads: cluster set-up, load generators, output checks.

System under test: one process, one thread, one asyncio loop hosting
n x (``NetNode`` + ``WallScheduler`` + real ``PeerTransport`` on
127.0.0.1) and one client identity over real loopback sockets. No
subprocesses, no extra threads, no injected delay — latency is CPU time
plus the genesis timers (``batch_delay`` 50 ms, ``request_timeout``
1.5 s). Genesis knobs are the defaults.

Everything here drives the program through its public surface
(``NetClient.set``/``get``/``status``); the only reach below it is the
crash of ``write_open_crash1`` and reading each node's
``MetricsRegistry`` after the run.
"""

from __future__ import annotations

import asyncio
import errno
import random
import socket
import string
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Iterator

from repro.net.client import NetClient
from repro.net.clock import WallScheduler
from repro.net.cluster import wait_cluster_ready
from repro.net.genesis import Genesis
from repro.net.node import NetNode
from repro.net.transport import PeerTransport

KEY_SPACE = 64
WARMUP_SETS = 64
IN_FLIGHT = 8
OPEN_RATE = 20.0  # mean set/s, about a third of closed-loop capacity
#: The crash lands after this share of the open-loop schedule.
CRASH_AFTER = 0.2
CRASHED_REPLICA = 1
REPLICAS = 4
CONVERGE_TIMEOUT = 10.0


@dataclass(frozen=True)
class Workload:
    op: str = "set"  # what one operation is: "set" or "get"
    open_loop: bool = False
    value_bytes: int = 10
    shards: int = 1
    crash: bool = False


WORKLOADS: dict[str, Workload] = {
    "write_small": Workload(),
    "read_small": Workload(op="get"),
    "write_large": Workload(value_bytes=4096),
    "write_open": Workload(open_loop=True),
    "write_open_crash1": Workload(open_loop=True, crash=True),
    "write_shard2": Workload(shards=2),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a valid measurement."""


# ---------------------------------------------------------------------------
# Inputs: everything the program sees is generated from the seed.
# ---------------------------------------------------------------------------


def commands(seed: int, value_bytes: int) -> Iterator[tuple[str, str]]:
    """An endless seeded stream of ``(key, value)`` commands.

    Values are distinct (the sequence number leads) and exactly
    ``value_bytes`` long; the filler comes from a seeded pool so that
    generating a 4 KiB value costs the shared loop a slice, not a loop.
    """
    rng = random.Random(seed)
    pool = [
        "".join(rng.choices(string.ascii_letters, k=value_bytes)) for _ in range(64)
    ]
    index = 0
    while True:
        stamp = f"{index:08d}:"
        value = (stamp + rng.choice(pool))[:value_bytes]
        yield f"k{rng.randrange(KEY_SPACE)}", value
        index += 1


# ---------------------------------------------------------------------------
# The cluster: every shard's replicas on the running loop.
# ---------------------------------------------------------------------------


def _free_ports(count: int) -> list[int]:
    """``count`` distinct loopback ports the OS just handed out.

    All probes stay bound until the last is picked: binding and
    releasing one at a time (``repro.net.cluster.free_port``) can hand
    the same port out twice.
    """
    probes = [socket.socket(socket.AF_INET, socket.SOCK_STREAM) for _ in range(count)]
    try:
        for probe in probes:
            probe.bind(("127.0.0.1", 0))
        return [probe.getsockname()[1] for probe in probes]
    finally:
        for probe in probes:
            probe.close()


class Cluster:
    """``shards`` groups of ``REPLICAS`` nodes plus one client identity."""

    def __init__(self, groups: list[list[NetNode]], client: Any) -> None:
        self.groups = groups
        self.client = client
        self.crashed: set[tuple[int, int]] = set()

    @classmethod
    async def boot(cls, shards: int, seed: int, port_retries: int = 2) -> "Cluster":
        """Build and start every node, then wait for all to answer status.

        Ports are picked by bind-and-release, which can lose a race
        against an outbound connection's ephemeral port; a bind failure
        is retried on freshly picked ports.
        """
        cluster = cls._build(shards, seed)
        try:
            for node in cluster.nodes():
                await node.transport.start()
                node.start()
            for group_client in cluster.group_clients():
                await wait_cluster_ready(group_client)
        except BaseException as exc:
            await cluster.stop()
            if (
                isinstance(exc, OSError)
                and exc.errno == errno.EADDRINUSE
                and port_retries > 0
            ):
                return await cls.boot(shards, seed, port_retries - 1)
            raise
        return cluster

    @classmethod
    def _build(cls, shards: int, seed: int) -> "Cluster":
        ports = iter(_free_ports(shards * REPLICAS))
        addresses = tuple(
            tuple(("127.0.0.1", next(ports)) for _ in range(REPLICAS))
            for _ in range(shards)
        )
        if shards == 1:
            genesis: Any = Genesis(
                name="bench", seed=seed, n_replicas=REPLICAS, addresses=addresses[0]
            )
            geneses = [genesis]
            client: Any = NetClient(genesis)
        else:
            from repro.shard.client import ShardedNetClient
            from repro.shard.genesis import ShardGenesis

            genesis = ShardGenesis(
                name="bench", seed=seed, n_shards=shards,
                replicas_per_shard=REPLICAS, addresses=addresses,
            )
            geneses = [genesis.genesis_for(shard) for shard in range(shards)]
            client = ShardedNetClient(genesis)
        loop = asyncio.get_running_loop()
        groups: list[list[NetNode]] = []
        for group_genesis in geneses:
            group: list[NetNode] = []
            for pid in range(REPLICAS):
                node = NetNode(group_genesis, pid, WallScheduler(loop))
                node.attach_transport(
                    PeerTransport(
                        group_genesis, pid, node.handle_message, metrics=node.net_metrics
                    )
                )
                group.append(node)
            groups.append(group)
        return cls(groups, client)

    def group_clients(self) -> list[NetClient]:
        """The plain per-group clients (one, unless sharded)."""
        if len(self.groups) == 1:
            return [self.client]
        return [self.client.clients[shard] for shard in range(len(self.groups))]

    def sets_by_group(self) -> list[int]:
        if len(self.groups) == 1:
            return [self.client.sets_completed]
        return [self.client.sets_by_shard[shard] for shard in range(len(self.groups))]

    async def crash(self, shard: int, pid: int) -> None:
        """Crash one replica from outside; it is never restarted."""
        node = self.groups[shard][pid]
        self.crashed.add((shard, pid))
        node.process.go_down()
        await node.transport.stop()

    async def stop(self) -> None:
        await self.client.close()
        for shard, group in enumerate(self.groups):
            for pid, node in enumerate(group):
                if (shard, pid) not in self.crashed:
                    await node.transport.stop()

    # -- reading the nodes' own registries ---------------------------------

    def nodes(self) -> list[NetNode]:
        return [node for group in self.groups for node in group]

    def counters(self) -> dict[str, float]:
        """``module/name`` counters (and histogram sums) over all nodes."""
        totals: dict[str, float] = {}
        for node in self.nodes():
            for (module, name, _pid, _rnd), value in node.metrics.iter_counters():
                key = f"{module}/{name}"
                totals[key] = totals.get(key, 0) + value
            for (module, name, _pid, _rnd), (count, total, _lo, _hi) in (
                node.metrics.iter_histograms()
            ):
                for suffix, part in ((".count", count), (".sum", total)):
                    key = f"{module}/{name}{suffix}"
                    totals[key] = totals.get(key, 0) + part
        return totals


# ---------------------------------------------------------------------------
# Set-up: boot, wait for status, preload and warm up.
# ---------------------------------------------------------------------------


async def closed_loop(
    count: int, in_flight: int, one: Callable[[int], Awaitable[None]]
) -> None:
    """Run ``one(i)`` for ``i < count`` with ``in_flight`` callers."""
    todo = iter(range(count))

    async def caller() -> None:
        for i in todo:
            await one(i)

    await asyncio.gather(*(caller() for _ in range(in_flight)))


async def set_up(workload: Workload, seed: int) -> tuple[Cluster, dict[str, str], float]:
    """Boot a cluster and bring it to steady state; returns the seconds taken.

    All of it — boot, status from every replica, ``WARMUP_SETS`` warm-up
    sets that touch every key once (``read_small``'s preload), and for
    reads as many warm-up gets — is ``setup_s`` and outside every other
    metric.
    """
    started = time.perf_counter()
    cluster = await Cluster.boot(workload.shards, seed)
    try:
        stream = commands(seed ^ 0x5E7, workload.value_bytes)
        preloaded = {f"k{i}": next(stream)[1] for i in range(KEY_SPACE)}
        keys = list(preloaded)

        async def warm_set(i: int) -> None:
            key = keys[i % KEY_SPACE]
            await cluster.client.set(key, preloaded[key])

        await closed_loop(WARMUP_SETS, IN_FLIGHT, warm_set)
        if workload.op == "get":

            async def warm_get(i: int) -> None:
                await cluster.client.get(keys[i % KEY_SPACE])

            await closed_loop(WARMUP_SETS, IN_FLIGHT, warm_get)
    except BaseException:
        await cluster.stop()
        raise
    return cluster, preloaded, time.perf_counter() - started


# ---------------------------------------------------------------------------
# The measured window.
# ---------------------------------------------------------------------------


@dataclass
class Window:
    """What one measured window observed."""

    seconds: float = 0.0
    cpu_seconds: float = 0.0
    #: Operations that succeeded before the window closed (the rate basis).
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    #: ``(seconds into the window, latency in ms)`` of every operation
    #: the window issued, in completion order; those past ``seconds``
    #: are the stragglers drained after the window closed.
    completions: list[tuple[float, float]] = field(default_factory=list)
    #: Open loop only: how late the generator fired each request.
    late_ms: list[float] = field(default_factory=list)
    #: Deltas over the window, summed over all nodes (``Cluster.counters``).
    counters: dict[str, float] = field(default_factory=dict)
    resubmissions: int = 0
    sets_by_group: list[int] = field(default_factory=list)
    #: Traced pass only: ``symbol -> (layer, calls, self_ns)``.
    spans: dict[str, tuple[str, int, int]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


async def measure(
    cluster: Cluster,
    workload: Workload,
    preloaded: dict[str, str],
    seed: int,
    seconds: float,
    tracer: Any = None,
) -> Window:
    """Offer load for ``seconds`` and record what the client saw.

    Rates (``ops_s``, CPU, bytes, the per-layer counters and spans) are
    taken over exactly the window and the operations that succeeded
    inside it. Operations still in flight when the window closes are
    drained afterwards and enter no metric.
    """
    loop = asyncio.get_running_loop()
    client = cluster.client
    window = Window()
    stream = commands(seed, workload.value_bytes)
    succeeded = 0

    async def operation(since: float) -> None:
        """One client operation, timed from ``since``."""
        nonlocal succeeded
        key, value = next(stream)
        window.attempted += 1
        try:
            if workload.op == "get":
                answer = await client.get(key)
                if answer != (True, preloaded[key]):
                    raise BenchError(f"get {key!r} returned {answer!r}")
            else:
                await client.set(key, value)
            succeeded += 1
        except Exception as exc:  # counted, reported, and fails the run
            window.failed += 1
            window.problems.append(f"operation failed: {exc!r}")
        now = loop.time()
        window.completions.append((now - opened, (now - since) * 1000.0))

    base_counters = cluster.counters()
    base_resubmissions = client.resubmissions
    base_sets = cluster.sets_by_group()
    if tracer is not None:
        tracer.reset()
    opened = loop.time()
    cpu_opened = time.process_time()
    deadline = opened + seconds

    if workload.open_loop:
        crash_at = CRASH_AFTER * seconds if workload.crash else None
        load = _open_loop(
            cluster, operation, opened, open_schedule(seed, seconds), crash_at, window
        )
    else:

        async def caller() -> None:
            while loop.time() < deadline:
                await operation(loop.time())

        load = asyncio.gather(*(caller() for _ in range(IN_FLIGHT)))
    load = asyncio.ensure_future(load)
    try:
        await asyncio.sleep(deadline - loop.time())
        # The window closes here.
        window.seconds = loop.time() - opened
        window.cpu_seconds = time.process_time() - cpu_opened
        window.completed = succeeded
        if tracer is not None:
            window.spans = {symbol: tuple(row) for symbol, row in tracer.rows.items()}
        window.resubmissions = client.resubmissions - base_resubmissions
        window.sets_by_group = [
            now - base for now, base in zip(cluster.sets_by_group(), base_sets)
        ]
        window.counters = {
            key: value - base_counters.get(key, 0)
            for key, value in cluster.counters().items()
        }
        await load  # drain what the window left in flight
    finally:
        load.cancel()
    if window.completed == 0:
        raise BenchError(f"no operation succeeded in a {seconds}s window")
    return window


def open_schedule(seed: int, seconds: float) -> list[float]:
    """Due instants (seconds after the window opens) of the open loop.

    ``OPEN_RATE * seconds`` arrivals at seeded uniformly random instants:
    a Poisson process conditioned on its count, which is what independent
    users look like. Evenly spaced arrivals are *not* used: at 20/s they
    are 50 ms apart, exactly ``batch_delay``, and the run's latency then
    depends on the phase the schedule happens to lock into against the
    replicas' batch timers (p95 swung 103-147 ms between identical runs).
    """
    rng = random.Random(seed ^ 0x0BE7)
    count = max(1, round(OPEN_RATE * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


async def _open_loop(
    cluster: Cluster,
    operation: Callable[[float], Awaitable[None]],
    opened: float,
    schedule: list[float],
    crash_at: float | None,
    window: Window,
) -> None:
    """Send on the schedule whatever the system does; time from *due*.

    A request's latency runs from the instant it was due, not from when
    the generator got to it, so a stalled loop shows up in the latency
    it imposes on later requests. How late the generator actually fired
    is recorded beside it. Replica ``CRASHED_REPLICA`` is crashed with
    the first request due ``crash_at`` seconds in or later.
    """
    loop = asyncio.get_running_loop()
    tasks: list[asyncio.Task] = []
    for offset in schedule:
        due = opened + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        window.late_ms.append((loop.time() - due) * 1000.0)
        if crash_at is not None and offset >= crash_at:
            crash_at = None
            tasks.append(loop.create_task(cluster.crash(0, CRASHED_REPLICA)))
        tasks.append(loop.create_task(operation(due)))
    await asyncio.gather(*tasks)


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


async def check_outputs(cluster: Cluster, workload: Workload) -> list[str]:
    """Problems with the program's outputs after the run (empty = correct).

    Every live replica of a group must report one digest and exactly the
    sets its client completed there (warm-up included); after the crash
    run a sentinel written last must come back from a quorum read.
    """
    problems: list[str] = []
    if workload.crash:
        await cluster.client.set("sentinel", "written-last")
        answer = await cluster.client.get("sentinel")
        if answer != (True, "written-last"):
            problems.append(f"sentinel read back as {answer!r}")
    deadline = time.monotonic() + CONVERGE_TIMEOUT
    for shard, group_client in enumerate(cluster.group_clients()):
        live = REPLICAS - sum(1 for s, _pid in cluster.crashed if s == shard)
        while True:
            replies = await group_client.status(timeout=1.0)
            expected = cluster.sets_by_group()[shard]
            seen = sorted(
                (pid, status.committed, status.digest[:12])
                for pid, status in replies.items()
            )
            if (
                len(replies) == live
                and len({digest for _pid, _count, digest in seen}) == 1
                and {count for _pid, count, _digest in seen} == {expected}
            ):
                break
            if time.monotonic() > deadline:
                problems.append(
                    f"shard {shard}: {live} live replicas did not converge on "
                    f"{expected} committed sets: {seen}"
                )
                break
            await asyncio.sleep(0.05)
    return problems
