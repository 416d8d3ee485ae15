"""The replicated service on the simulator: workload clients and a world.

:func:`build_service_system` wires ``n_replicas`` service replicas and
``n_clients`` workload generators into a single simulated
:class:`~repro.sim.world.World` (replicas take pids
``0..n_replicas-1``, clients the pids above), optionally installs
Byzantine consensus engines on some replicas and schedules a *recovery
plan* — ``(pid, down_at, up_at)`` triples that take a replica down
(silent, volatile state lost) and restart it into state transfer.

Two standard workload shapes drive the service (docs/SERVICE.md):

* :class:`OpenLoopClient` — arrivals form a Poisson process of a fixed
  rate, independent of completions (the load-generator model: latency
  degradation does not throttle offered load);
* :class:`ClosedLoopClient` — one outstanding request at a time, a new
  one after a think-time pause (the interactive-user model).

Both draw every random choice from the world's seeded per-process
stream (``env.rng``), so a run is a pure function of its seed. A client
records the submit time of every request and the end-to-end latency of
every completion. The protocol is :class:`~repro.service.session.ClientSession`,
the one the TCP and loopback clients run: every request goes to every
replica — the replicas decide which one proposes it (docs/SERVICE.md) —
silence past ``request_timeout`` *resubmits the same request* to every
replica again (the replicas' executed-id deduplication makes the retry
safe), and a request completes on acks from f+1 distinct replicas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.observability.registry import MODULE_SERVICE
from repro.process import LinkPolicy, Process, ProcessEnv
from repro.service.config import ServiceConfig
from repro.service.replica import EngineFactory, ServiceReplicaProcess
from repro.service.session import ClientSession
from repro.sim.network import DelayModel
from repro.sim.world import World


class ServiceClient(Process):
    """The one client protocol (:class:`~repro.service.session.ClientSession`)
    in the simulator, plus the request/latency bookkeeping of both
    workload shapes: a request completes on f+1 distinct acks, exactly
    as it does for the TCP and loopback clients."""

    def __init__(
        self,
        n_replicas: int,
        f: int,
        total_requests: int,
        request_timeout: float,
        key_space: int = 16,
    ) -> None:
        super().__init__()
        self.n_replicas = n_replicas
        self.f = f
        self.total_requests = total_requests
        self.request_timeout = request_timeout
        self.key_space = key_space
        #: req_id -> completion virtual time.
        self.completed: dict[int, float] = {}
        #: end-to-end latencies in completion order (the benchmark's input).
        self.latencies: list[float] = []

    def bind(self, env: ProcessEnv) -> None:
        super().bind(env)
        self.session = ClientSession(env.pid, self.n_replicas, self.f)
        self._metrics = env.metrics.scope(MODULE_SERVICE, env.pid)

    # -- workload surface ---------------------------------------------------

    @property
    def issued(self) -> int:
        return self.session.next_req_id

    @property
    def resubmissions(self) -> int:
        return self.session.resubmissions

    @property
    def finished(self) -> bool:
        return len(self.completed) >= self.total_requests

    def completed_idents(self) -> set[tuple[int, int]]:
        return {(self.pid, req_id) for req_id in self.completed}

    # -- request lifecycle --------------------------------------------------

    def _issue(self) -> None:
        req_id = self.session.next_req_id
        key = f"k{self.env.rng.randint(0, self.key_space - 1)}"
        self.session.set(key, f"c{self.pid}-{req_id}", self.now)
        self._metrics.inc("requests_issued")
        self.record("request", req_id=req_id)
        self._submit(req_id)

    def _submit(self, req_id: int) -> None:
        request = self.session.submit(req_id)
        for replica in range(self.n_replicas):
            self.send(replica, request)
        self.set_timer(f"req-{req_id}", self.request_timeout)

    def on_timer(self, name: str) -> None:
        if name.startswith("req-"):
            req_id = int(name.partition("-")[2])
            op = self.session.ops.get(req_id)
            if op is None:
                return
            self._metrics.inc("resubmissions")
            self.record("resubmit", req_id=req_id, attempt=op.attempts)
            self._submit(req_id)
            return
        self.handle_workload_timer(name)

    def on_message(self, src: int, payload) -> None:
        op = self.session.on_reply(src, payload)
        if op is None:
            return
        self.cancel_timer(f"req-{op.req_id}")
        latency = self.now - op.issued_at
        self.completed[op.req_id] = self.now
        self.latencies.append(latency)
        self._metrics.inc("requests_completed")
        self._metrics.observe("request_latency", latency)
        self.record("reply", req_id=op.req_id, slot=op.result)
        self.on_complete(op.req_id)

    # -- hooks for the two workload shapes ----------------------------------

    def handle_workload_timer(self, name: str) -> None:
        """Workload-specific timers (arrival / think)."""

    def on_complete(self, req_id: int) -> None:
        """A request finished; closed-loop clients schedule the next."""


class OpenLoopClient(ServiceClient):
    """Poisson arrivals at ``rate`` requests per unit of virtual time."""

    def __init__(
        self,
        n_replicas: int,
        f: int,
        total_requests: int,
        request_timeout: float,
        rate: float,
        key_space: int = 16,
    ) -> None:
        super().__init__(n_replicas, f, total_requests, request_timeout, key_space)
        self.rate = rate

    def on_start(self) -> None:
        self._schedule_arrival()

    def _schedule_arrival(self) -> None:
        self.set_timer("arrival", self.env.rng.expovariate(self.rate))

    def handle_workload_timer(self, name: str) -> None:
        if name != "arrival" or self.issued >= self.total_requests:
            return
        self._issue()
        if self.issued < self.total_requests:
            self._schedule_arrival()


class ClosedLoopClient(ServiceClient):
    """One outstanding request; the next follows after a think pause."""

    def __init__(
        self,
        n_replicas: int,
        f: int,
        total_requests: int,
        request_timeout: float,
        think: float,
        key_space: int = 16,
    ) -> None:
        super().__init__(n_replicas, f, total_requests, request_timeout, key_space)
        self.think = think

    def on_start(self) -> None:
        self._issue()

    def on_complete(self, req_id: int) -> None:
        if self.issued >= self.total_requests:
            return
        if self.think <= 0:
            self._issue()
            return
        # Jittered think time: deterministic per seed, desynchronised
        # across clients so closed-loop runs do not proceed in lockstep.
        self.set_timer("think", self.think * self.env.rng.uniform(0.5, 1.5))

    def handle_workload_timer(self, name: str) -> None:
        if name == "think" and self.issued < self.total_requests:
            self._issue()


@dataclass(slots=True)
class ServiceSystem:
    """A runnable service deployment plus its analysis surface."""

    world: World
    config: ServiceConfig
    replicas: list[ServiceReplicaProcess]
    clients: list[ServiceClient]
    byzantine_pids: frozenset[int]
    recoveries: tuple[tuple[int, float, float], ...]

    @property
    def correct_pids(self) -> frozenset[int]:
        """Replica pids without an injected Byzantine engine."""
        return frozenset(range(self.config.n_replicas)) - self.byzantine_pids

    def run(self, max_events: int = 5_000_000, max_time: float = 3_000.0):
        return self.world.run(max_events=max_events, max_time=max_time)

    # -- aggregate views (oracles, benchmarks) -------------------------------

    def committed_commands(self) -> int:
        """Client commands committed at the most advanced correct replica."""
        return max(
            self.replicas[pid].slotlog.committed_commands for pid in self.correct_pids
        )

    def checkpoint_digests(self) -> dict[int, set[str]]:
        """count -> digests attested by correct replicas at that count."""
        digests: dict[int, set[str]] = {}
        for pid in sorted(self.correct_pids):
            for count, digest in self.replicas[pid].checkpoint_history:
                digests.setdefault(count, set()).add(digest)
        return digests

    def checkpoints_agree(self) -> bool:
        """One digest per checkpoint count across all correct replicas."""
        return all(
            len(digests) == 1 for digests in self.checkpoint_digests().values()
        )

    def certified_checkpoints(self) -> int:
        """Distinct counts some correct replica ever certified."""
        counts: set[int] = set()
        for pid in self.correct_pids:
            counts |= self.replicas[pid].certified_counts
        return len(counts)

    def client_latencies(self) -> list[float]:
        latencies: list[float] = []
        for client in self.clients:
            latencies.extend(client.latencies)
        return latencies

    def completed_requests(self) -> int:
        return sum(len(client.completed) for client in self.clients)

    def all_clients_done(self) -> bool:
        return all(client.finished for client in self.clients)


def build_service_system(
    config: ServiceConfig,
    byzantine: dict[int, EngineFactory] | None = None,
    recoveries: tuple[tuple[int, float, float], ...] = (),
    delay_model: DelayModel | None = None,
    link: LinkPolicy | None = None,
    transport: str = "none",
) -> ServiceSystem:
    """Validate ``config`` and build the (not yet run) service world."""
    config.validate()
    byzantine = dict(byzantine or {})
    for pid in byzantine:
        if not 0 <= pid < config.n_replicas:
            raise ConfigurationError(
                f"byzantine pid {pid} out of range for "
                f"n_replicas={config.n_replicas}"
            )
    for pid, down_at, up_at in recoveries:
        if not 0 <= pid < config.n_replicas:
            raise ConfigurationError(
                f"recovery pid {pid} out of range for "
                f"n_replicas={config.n_replicas}"
            )
        if down_at < 0 or up_at <= down_at:
            raise ConfigurationError(
                f"recovery window [{down_at!r}, {up_at!r}) must satisfy "
                "0 <= down < up"
            )
        if pid in byzantine:
            raise ConfigurationError(
                f"replica {pid} cannot be both Byzantine and recovering"
            )

    replicas = []
    for pid in range(config.n_replicas):
        kwargs = {}
        if pid in byzantine:
            kwargs["engine_factory"] = byzantine[pid]
        replicas.append(ServiceReplicaProcess(config, **kwargs))

    clients: list[ServiceClient] = []
    for _ in range(config.n_clients):
        if config.mode == "open":
            clients.append(
                OpenLoopClient(
                    n_replicas=config.n_replicas,
                    f=config.params().f,
                    total_requests=config.requests_per_client,
                    request_timeout=config.request_timeout,
                    rate=config.rate,
                    key_space=config.key_space,
                )
            )
        else:
            clients.append(
                ClosedLoopClient(
                    n_replicas=config.n_replicas,
                    f=config.params().f,
                    total_requests=config.requests_per_client,
                    request_timeout=config.request_timeout,
                    think=config.think,
                    key_space=config.key_space,
                )
            )

    world = World(
        replicas + clients,
        seed=config.seed,
        delay_model=delay_model,
        link=link,
        transport=transport,
    )
    for pid, down_at, up_at in recoveries:
        replica = replicas[pid]
        world.scheduler.schedule_at(down_at, "service-down", replica.go_down)
        world.scheduler.schedule_at(up_at, "service-restart", replica.restart)
    return ServiceSystem(
        world=world,
        config=config,
        replicas=replicas,
        clients=clients,
        byzantine_pids=frozenset(byzantine),
        recoveries=tuple(recoveries),
    )
