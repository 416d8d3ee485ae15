"""The in-process twin of a deployment: one replica group, one clock.

Real :class:`~repro.net.node.NetNode` hosts and the real wire codec on
every hop, but the fabric is a :class:`~repro.net.transport.LoopbackHub`
and the clock a :class:`~repro.net.clock.ManualScheduler`, so a whole
group runs deterministically inside the calling process. The fault
runner drives one :class:`LoopbackCluster` under an injector link
policy (``repro.faults.loopback_runner``); the sharded twin is a dict of
them on one shared scheduler under a latency policy
(``repro.shard.loopback``).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.net.genesis import Genesis
from repro.net.node import NetNode
from repro.net.transport import LinkPolicy, LoopbackHub
from repro.replication.kvstore import Command
from repro.service.checkpoint import service_digest
from repro.service.messages import ClientReply, ClientRequest

#: Genesis timers of every twin: virtual seconds are free, so clients
#: resubmit and replicas probe sooner than a deployment would, and no
#: node writes a periodic metrics file.
TWIN_KNOBS = {
    "request_timeout": 0.6,
    "stall_probe": 2.0,
    "metrics_interval": 0.0,
}


def fixed_addresses(n_replicas: int, port_base: int) -> tuple[tuple[str, int], ...]:
    """Fake but *fixed* addresses: the fabric never binds a socket, yet
    the genesis schema wants addresses, and fixed ones keep the genesis
    id (hence every hello MAC) identical across runs — the byte-identity
    contracts of the deterministic fidelities depend on it."""
    return tuple(("127.0.0.1", port_base + pid) for pid in range(n_replicas))


class LoopbackClient:
    """Minimal correct client: f+1 distinct acks, resubmit on silence.

    Like :class:`~repro.net.client.NetClient`, it sends every request
    and every resubmission to every replica; the replicas pick the
    proposer.
    """

    def __init__(
        self, genesis: Genesis, hub: LoopbackHub, scheduler: Any, index: int = 0
    ) -> None:
        self.genesis = genesis
        self.pid = genesis.n_replicas + index
        self.f = genesis.service_config().params().f
        self.scheduler = scheduler
        self.transport = hub.register(self.pid, self._on_message)
        self.next_id = 0
        self.outstanding: dict[int, ClientRequest] = {}
        self.attempts: dict[int, int] = {}
        self.acks: dict[int, set[int]] = {}
        self.completed: set[int] = set()

    def _on_message(self, src: int, message: Any) -> None:
        if isinstance(message, ClientReply) and message.client == self.pid:
            if message.req_id in self.completed:
                return
            self.acks.setdefault(message.req_id, set()).add(message.replica)
            if len(self.acks[message.req_id]) >= self.f + 1:
                self.completed.add(message.req_id)
                self.outstanding.pop(message.req_id, None)

    def set(self, key: str, value: str) -> int:
        req_id = self.next_id
        self.next_id += 1
        request = ClientRequest(
            client=self.pid, req_id=req_id, command=Command("set", key, value)
        )
        self.outstanding[req_id] = request
        self.attempts[req_id] = 0
        self._submit(req_id)
        return req_id

    def _submit(self, req_id: int) -> None:
        request = self.outstanding.get(req_id)
        if request is None:
            return
        self.attempts[req_id] += 1
        for replica in range(self.genesis.n_replicas):
            self.transport.send(replica, request)
        self.scheduler.schedule_after(
            self.genesis.request_timeout,
            "resubmit",
            lambda: self._submit(req_id),
        )


class LoopbackCluster:
    """One replica group and its clients on one hub and one scheduler.

    ``link`` is the hub's link policy; ``config`` overrides the
    genesis-derived service config for every node (it must agree across
    the group); ``engine_factories`` turns the named pids Byzantine at
    first boot — a rejoin always builds a correct node.
    """

    def __init__(
        self,
        genesis: Genesis,
        scheduler: Any,
        *,
        link: LinkPolicy | None = None,
        config: Any = None,
        engine_factories: Mapping[int, Any] | None = None,
        clients: int = 1,
    ) -> None:
        self.genesis = genesis
        self.scheduler = scheduler
        self.config = config
        self.hub = LoopbackHub(scheduler, link)
        self.nodes: dict[int, NetNode] = {}
        for pid in range(genesis.n_replicas):
            self.up(pid, engine_factory=(engine_factories or {}).get(pid))
        self.clients = [
            LoopbackClient(genesis, self.hub, scheduler, index)
            for index in range(clients)
        ]

    def up(self, pid: int, *, join: bool = False, engine_factory: Any = None) -> None:
        node = NetNode(
            self.genesis,
            pid,
            self.scheduler,
            join=join,
            engine_factory=engine_factory,
            config=self.config,
        )
        node.attach_transport(self.hub.register(pid, node.handle_message))
        self.nodes[pid] = node
        node.start()

    def kill(self, pid: int) -> None:
        """Crash semantics: the dead process neither fires timers into
        the fabric nor keeps volatile state."""
        node = self.nodes.pop(pid, None)
        if node is None:
            return
        self.hub.unregister(pid)
        node.process.go_down()

    def rejoin(self, pid: int) -> None:
        """Fresh node with ``join=True``: certified transfer is the way back."""
        self.up(pid, join=True)

    def pump(self, seconds: float, *, step: float = 0.1) -> None:
        for _ in range(int(round(seconds / step))):
            self.scheduler.advance(step)

    def completed(self) -> int:
        return sum(len(client.completed) for client in self.clients)

    def committed(self) -> dict[int, int]:
        return {
            pid: node.process.committed_commands
            for pid, node in sorted(self.nodes.items())
        }

    def digests(self) -> dict[int, str]:
        return {
            pid: service_digest(node.process.store, node.process.executed)
            for pid, node in sorted(self.nodes.items())
        }
