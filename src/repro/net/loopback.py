"""The in-process twin of a deployment: one replica group, one clock.

The deployment's own classes — :class:`~repro.net.node.NetNode`,
:class:`~repro.net.transport.PeerTransport` and
:class:`~repro.net.client.NetClient` — on a
:class:`~repro.net.clock.VirtualTimeLoop`, so a whole group runs
deterministically inside the calling process. The fault runner drives
one :class:`LoopbackCluster` under an injector link policy
(``repro.faults.loopback_runner``); the sharded twin is a dict of them
on one shared loop under a latency policy (``repro.shard.loopback``).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Coroutine, Mapping

from repro.net.client import NetClient
from repro.net.clock import VirtualTimeLoop, WallScheduler
from repro.net.genesis import Genesis
from repro.net.node import NetNode
from repro.net.transport import PeerTransport
from repro.process import LinkPolicy

#: Genesis timers of every twin (and of the fault engine's TCP runs):
#: clients resubmit and replicas probe sooner than a deployment would.
TWIN_TIMERS = {"request_timeout": 0.6, "stall_probe": 2.0}
#: Genesis knobs of every twin: its timers, and no node writes a
#: periodic metrics file.
TWIN_KNOBS = {**TWIN_TIMERS, "metrics_interval": 0.0}


def fixed_addresses(n_replicas: int, port_base: int) -> tuple[tuple[str, int], ...]:
    """Fake but *fixed* addresses: the in-memory streams never bind a
    socket, yet the genesis schema wants addresses, and fixed ones keep
    the genesis id (hence every hello MAC) identical across runs — the
    byte-identity contracts of the deterministic fidelities depend on it."""
    return tuple(("127.0.0.1", port_base + pid) for pid in range(n_replicas))


class LoopbackCluster:
    """One replica group and its clients on one virtual-time loop.

    ``link`` is every transport's and client's link policy; ``config``
    overrides the genesis-derived service config for every node (it
    must agree across the group); ``engine_factories`` turns the named
    pids Byzantine at first boot — a rejoin always builds a correct
    node. Without ``loop`` the cluster runs on a loop of its own, which
    :meth:`close` closes. Clients number their requests from 0.
    """

    def __init__(
        self,
        genesis: Genesis,
        *,
        loop: VirtualTimeLoop | None = None,
        link: LinkPolicy | None = None,
        config: Any = None,
        engine_factories: Mapping[int, Any] | None = None,
        clients: int = 1,
    ) -> None:
        self.genesis = genesis
        self._owns_loop = loop is None
        self.loop = VirtualTimeLoop() if loop is None else loop
        #: The drivers' timers, in virtual seconds since the loop began.
        self.scheduler = WallScheduler(self.loop)
        self.config = config
        self._link = link
        self.nodes: dict[int, NetNode] = {}
        self.transports: dict[int, PeerTransport] = {}
        self._killed: list[PeerTransport] = []
        for pid in range(genesis.n_replicas):
            self.up(pid, engine_factory=(engine_factories or {}).get(pid))
        self.clients = [
            NetClient(genesis, index, first_req_id=0, link=link)
            for index in range(clients)
        ]

    # -- tasks -------------------------------------------------------------

    def spawn(self, coro: Coroutine[Any, Any, Any]) -> asyncio.Task:
        """Run ``coro`` on the loop; :meth:`close` ends it if it is still
        running, and an exception it raises fails the next pump."""
        return self.loop.spawn(coro)

    def run_until(self, condition: Callable[[], bool], timeout: float) -> bool:
        return self.loop.run_until(condition, timeout)

    def pump(self, seconds: float) -> None:
        """Run exactly ``seconds`` of virtual time."""
        self.run_until(lambda: False, seconds)

    # -- node lifecycle ----------------------------------------------------

    def up(self, pid: int, *, join: bool = False, engine_factory: Any = None) -> None:
        node = NetNode(
            self.genesis,
            pid,
            WallScheduler(self.loop),
            join=join,
            engine_factory=engine_factory,
            config=self.config,
        )
        transport = PeerTransport(
            self.genesis,
            pid,
            node.handle_message,
            metrics=node.net_metrics,
            link=self._link,
        )
        node.attach_transport(transport)
        self.nodes[pid] = node
        self.transports[pid] = transport
        self.spawn(self._boot(node, transport))

    async def _boot(self, node: NetNode, transport: PeerTransport) -> None:
        if self.transports.get(node.pid) is transport:  # not killed meanwhile
            await transport.start()
            node.start()

    def kill(self, pid: int) -> None:
        """As after a SIGKILL: the replica stops, volatile state and all,
        and every connection it had drops at once."""
        node = self.nodes.pop(pid, None)
        if node is None:
            return
        node.process.go_down()
        transport = self.transports.pop(pid)
        transport.abort()
        self._killed.append(transport)

    def rejoin(self, pid: int) -> None:
        """Fresh node with ``join=True``: certified transfer is the way back."""
        self.up(pid, join=True)

    def close(self) -> None:
        """End every task, client and transport, so nothing outlives the
        run; then close the loop if the cluster made it."""

        async def shutdown() -> None:
            await self.loop.cancel_spawned()
            await asyncio.gather(
                *(client.close() for client in self.clients),
                *(t.stop() for t in (*self._killed, *self.transports.values())),
            )

        self.loop.run_until_complete(shutdown())
        if self._owns_loop:
            self.loop.close()

    def __enter__(self) -> "LoopbackCluster":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
