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

from typing import Any, KeysView, Mapping

from repro.net.genesis import Genesis
from repro.net.node import NetNode
from repro.net.transport import LoopbackHub
from repro.service.checkpoint import service_digest
from repro.service.session import ClientSession, PendingOp
from repro.sim.network import LinkPolicy

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
    """The one client protocol (:class:`~repro.service.session.ClientSession`)
    on the hub and the virtual clock.

    Like :class:`~repro.net.client.NetClient`, it sends every request
    and every resubmission to every replica; the replicas pick the
    proposer. ``set``/``get``/``status`` return the request id, and
    ``finished`` holds each operation the session settled.
    """

    def __init__(
        self, genesis: Genesis, hub: LoopbackHub, scheduler: Any, index: int = 0
    ) -> None:
        self.genesis = genesis
        self.pid = genesis.n_replicas + index
        self.scheduler = scheduler
        self.session = ClientSession(
            self.pid, genesis.n_replicas, genesis.service_config().params().f
        )
        self.transport = hub.register(self.pid, self._on_message)
        #: req_id -> every operation settled, in completion order.
        self.finished: dict[int, PendingOp] = {}

    @property
    def completed(self) -> KeysView[int]:
        return self.finished.keys()

    @property
    def attempts(self) -> dict[int, int]:
        """req_id -> how many times its request was sent, settled or not."""
        ops = {**self.finished, **self.session.ops}
        return {req_id: op.attempts for req_id, op in ops.items()}

    @property
    def resubmissions(self) -> int:
        return self.session.resubmissions

    def _on_message(self, src: int, message: Any) -> None:
        op = self.session.on_reply(src, message)
        if op is not None:
            self.finished[op.req_id] = op

    def set(self, key: str, value: Any) -> int:
        return self._start(self.session.set(key, value, self.scheduler.now))

    def get(self, key: str) -> int:
        return self._start(self.session.get(key, self.scheduler.now))

    def status(self) -> int:
        return self._start(self.session.status(self.scheduler.now))

    def _start(self, op: PendingOp) -> int:
        self._submit(op.req_id)
        return op.req_id

    def _submit(self, req_id: int) -> None:
        request = self.session.submit(req_id)
        if request is None:
            return
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
            pid: node.process.slotlog.committed_commands
            for pid, node in sorted(self.nodes.items())
        }

    def digests(self) -> dict[int, str]:
        digests = {}
        for pid, node in sorted(self.nodes.items()):
            log = node.process.slotlog
            digests[pid] = service_digest(log.store, log.executed)
        return digests
