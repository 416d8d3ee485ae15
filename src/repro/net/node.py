"""The replica host: one OS process running one ``ServiceReplicaProcess``.

The node is deliberately thin — Figure 1's modules, the transformed
consensus and the whole service replica run **unchanged**. The node only
re-plumbs their environment:

* timers go to a :class:`~repro.net.clock.WallScheduler` (asyncio
  ``call_later``) instead of the simulator's event queue;
* ``send`` goes to a transport (TCP mesh or loopback) instead of the
  simulated network;
* two read-only request types that exist only in deployments —
  :class:`~repro.net.messages.ReadRequest` and
  :class:`~repro.net.messages.StatusRequest` — are answered here at the
  node layer from committed state; everything else is delivered to the
  replica verbatim.

Observability: each node owns a private
:class:`~repro.observability.registry.MetricsRegistry` plus a bounded
trace, periodically exported as the standard ``repro.observability/v1``
JSONL artifact (one file per node, rewritten in place — the artifact is
a cumulative snapshot, so `python -m repro report` works on a live
cluster's directory).
"""

from __future__ import annotations

import asyncio
import signal
import time
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.net.clock import WallScheduler
from repro.net.genesis import Genesis
from repro.net.messages import ReadReply, ReadRequest, StatusReply, StatusRequest
from repro.net.transport import PeerTransport
from repro.observability.export import detail_value, write_run_jsonl
from repro.observability.registry import MODULE_NET, MetricsRegistry
from repro.service.checkpoint import service_digest
from repro.service.replica import ServiceReplicaProcess
from repro.sim.process import ProcessEnv
from repro.sim.rng import SeededRng
from repro.sim.trace import Trace

_MISSING = object()


class BoundedTrace(Trace):
    """A trace that forgets its oldest events past a cap.

    Simulated runs are finite; a deployed node is not, so its trace must
    not grow without bound. The JSONL export of a long-lived node is
    therefore a *recent-events window* plus the (complete) metrics.
    Each detail value is kept as the artifact renders it, never as the
    object itself: a ring of 4,096 events must not hold thousands of
    slots' proposals and vectors alive after the log let them go.
    """

    def __init__(self, max_events: int = 4096) -> None:
        super().__init__()
        self._max_events = max_events
        self.dropped = 0

    def record(self, time: float, kind: str, process: int | None = None, **detail: Any):
        for key, value in detail.items():
            detail[key] = detail_value(value)
        event = super().record(time, kind, process=process, **detail)
        overflow = len(self._events) - self._max_events
        if overflow > 0:
            del self._events[:overflow]
            self.dropped += overflow
        return event


class _TransportFabric:
    """The ``network`` surface of :class:`ProcessEnv`, bridged to a node."""

    __slots__ = ("_node",)

    def __init__(self, node: "NetNode") -> None:
        self._node = node

    def send(self, src: int, dst: int, payload: Any) -> None:
        self._node.dispatch_send(dst, payload)


class NetNode:
    """One deployed replica: env plumbing, reads, status, metrics export."""

    def __init__(
        self,
        genesis: Genesis,
        pid: int,
        scheduler: Any,
        *,
        join: bool = False,
        metrics_path: str | Path | None = None,
        engine_factory: Any = None,
        config: Any = None,
    ) -> None:
        genesis.validate()
        if not 0 <= pid < genesis.n_replicas:
            raise ConfigurationError(
                f"pid {pid} outside the replica range 0..{genesis.n_replicas - 1}"
            )
        self.genesis = genesis
        self.pid = pid
        self.scheduler = scheduler
        self._join = join
        self._metrics_path = Path(metrics_path) if metrics_path else None
        self.metrics = MetricsRegistry()
        self.trace = BoundedTrace()
        self.net_metrics = self.metrics.scope(MODULE_NET, pid)
        # A non-default engine factory turns this node Byzantine at the
        # consensus layer (the fault-plan collusion axis, docs/FAULTS.md).
        replica_kwargs = {}
        if engine_factory is not None:
            replica_kwargs["engine_factory"] = engine_factory
        # ``config`` overrides the genesis-derived ServiceConfig (the
        # adversary-zoo runners arm self-heal / adaptive ◇M / a tighter
        # checkpoint cadence); it must agree across the cluster, so the
        # runners derive it from the shared plan, never per-node.
        self.process = ServiceReplicaProcess(
            config if config is not None else genesis.service_config(),
            **replica_kwargs,
        )
        env = ProcessEnv(
            pid=pid,
            n=genesis.n_replicas + genesis.max_clients,
            scheduler=scheduler,
            network=_TransportFabric(self),
            trace=self.trace,
            rng=SeededRng(genesis.seed, f"net-node-{pid}"),
            metrics=self.metrics,
        )
        self.process.bind(env)
        self.transport: Any = None

    # -- lifecycle ---------------------------------------------------------

    def attach_transport(self, transport: Any) -> None:
        self.transport = transport

    def start(self) -> None:
        if self.transport is None:
            raise ConfigurationError("node started without a transport")
        self.process.on_start()
        if self._join:
            self.process.catch_up()
        if self._metrics_path and self.genesis.metrics_interval > 0:
            self.scheduler.schedule_after(
                self.genesis.metrics_interval, "metrics", self._metrics_tick
            )

    # -- the data plane ----------------------------------------------------

    def dispatch_send(self, dst: int, payload: Any) -> None:
        self.net_metrics.inc("messages_out")
        self.transport.send(dst, payload)

    def handle_message(self, src: int, payload: Any) -> None:
        """Transport delivery callback: net-level requests, then the replica."""
        self.net_metrics.inc("messages_in")
        if isinstance(payload, ReadRequest):
            self._on_read(src, payload)
        elif isinstance(payload, StatusRequest):
            self._on_status(src, payload)
        else:
            self.process.deliver(src, payload)

    def _on_read(self, src: int, request: ReadRequest) -> None:
        """Answer from *committed* state only (docs/NET.md: the client
        assembles f+1 matching replies into a trustworthy read)."""
        if self.process.down:
            return
        value = self.process.store.get(request.key, _MISSING)
        found = value is not _MISSING
        self.net_metrics.inc("reads_served")
        self.dispatch_send(
            request.client,
            ReadReply(
                replica=self.pid,
                client=request.client,
                req_id=request.req_id,
                key=request.key,
                found=found,
                value=value if found else None,
                applied=self.process.next_apply,
            ),
        )

    def _on_status(self, src: int, request: StatusRequest) -> None:
        if self.process.down:
            return
        self.net_metrics.inc("status_served")
        self.dispatch_send(request.client, self.status_reply(request))

    def status_reply(self, request: StatusRequest) -> StatusReply:
        process = self.process
        return StatusReply(
            replica=self.pid,
            client=request.client,
            req_id=request.req_id,
            applied=process.next_apply,
            committed=process.committed_commands,
            store_applied=process.store.applied,
            digest=service_digest(process.store, process.executed),
            stable_count=process.stable.count if process.stable else 0,
            transfers=len(process.state_transfers_completed),
            suffix_rejections=process.suffix_rejections,
        )

    # -- observability -----------------------------------------------------

    def _metrics_tick(self) -> None:
        self.export_metrics()
        self.scheduler.schedule_after(
            self.genesis.metrics_interval, "metrics", self._metrics_tick
        )

    def export_metrics(self) -> Path | None:
        """Rewrite this node's JSONL artifact with the current state."""
        if not self._metrics_path:
            return None
        self.net_metrics.inc("metrics_exports")
        meta = {
            "runtime": "net",
            "genesis": self.genesis.genesis_id(),
            "node": self.pid,
            "applied": self.process.next_apply,
            "committed": self.process.committed_commands,
            "trace_dropped": self.trace.dropped,
        }
        write_run_jsonl(self._metrics_path, self.trace, self.metrics, meta)
        return self._metrics_path


async def serve_replica(
    genesis: Genesis,
    pid: int,
    *,
    join: bool = False,
    metrics_dir: str | Path | None = None,
    ready_message: bool = True,
    fault_plan: str | Path | None = None,
    fault_origin: float | None = None,
    attack: str | None = None,
) -> int:
    """Run one replica until SIGTERM/SIGINT; the ``net replica`` command.

    ``fault_plan``/``fault_origin`` load a :class:`repro.faults` plan and
    install a :class:`~repro.net.faulty.FaultyPeerTransport` that injects
    the plan's link faults on this node's *outbound* traffic, with plan
    time measured from the shared wall-clock ``fault_origin`` epoch.
    ``attack`` names a transformed-attack engine, turning this replica
    Byzantine (the collusion axis).
    """
    loop = asyncio.get_running_loop()
    scheduler = WallScheduler(loop)
    metrics_path = (
        Path(metrics_dir) / f"node-{pid}.jsonl" if metrics_dir else None
    )
    engine_factory = None
    if attack is not None:
        from repro.byzantine import transformed_attack

        engine_factory = transformed_attack(pid, attack)[pid]
    plan = origin = None
    config = None
    if fault_plan is not None:
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.load(fault_plan)
        origin = fault_origin if fault_origin is not None else loop.time()
        if plan.has_zoo:
            # Zoo plans re-derive the cluster config from the shared
            # plan (every node computes the same overrides).
            import dataclasses

            from repro.zoo.runtime import zoo_loopback_overrides

            overrides = zoo_loopback_overrides(plan)
            if overrides:
                config = dataclasses.replace(
                    genesis.service_config(), **overrides
                )
    node = NetNode(
        genesis,
        pid,
        scheduler,
        join=join,
        metrics_path=metrics_path,
        engine_factory=engine_factory,
        config=config,
    )
    if plan is not None:
        from repro.faults.injector import LinkFaultInjector
        from repro.net.faulty import FaultyPeerTransport

        injector = LinkFaultInjector(
            plan, registry=node.metrics, local_pid=pid
        )
        transport: PeerTransport = FaultyPeerTransport(
            genesis,
            pid,
            node.handle_message,
            metrics=node.net_metrics,
            injector=injector,
            plan_clock=lambda: time.time() - origin,
        )
        if plan.has_zoo:
            # Families (b)/(d) are *self*-injections: each subprocess
            # corrupts only its own replica, at the plan instant mapped
            # onto the shared wall-clock origin.
            from repro.zoo.runtime import ZooInjections, install_zoo_injections

            install_zoo_injections(
                plan,
                lambda at, label, thunk: scheduler.schedule_after(
                    max(0.0, at - (time.time() - origin)), label, thunk
                ),
                lambda p: node.process if p == pid else None,
                ZooInjections(),
                node.metrics,
                pids=frozenset({pid}),
            )
    else:
        transport = PeerTransport(
            genesis, pid, node.handle_message, metrics=node.net_metrics
        )
    await transport.start()
    node.attach_transport(transport)
    node.start()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    if ready_message:
        host, _ = genesis.address_of(pid)
        print(
            f"repro-net replica {pid} serving {host}:{transport.bound_port} "
            f"genesis {genesis.genesis_id()}",
            flush=True,
        )
    try:
        await stop.wait()
    finally:
        node.export_metrics()
        await transport.stop()
    return 0
