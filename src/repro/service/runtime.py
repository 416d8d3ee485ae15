"""Build and run a replicated-service deployment in one world.

:func:`build_service_system` wires ``n_replicas`` service replicas and
``n_clients`` workload generators into a single simulated
:class:`~repro.sim.world.World` (replicas take pids
``0..n_replicas-1``, clients the pids above), optionally installs
Byzantine consensus engines on some replicas and schedules a *recovery
plan* — ``(pid, down_at, up_at)`` triples that take a replica down
(silent, volatile state lost) and restart it into state transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.service.clients import ClosedLoopClient, OpenLoopClient, ServiceClient
from repro.service.config import ServiceConfig
from repro.service.replica import EngineFactory, ServiceReplicaProcess
from repro.sim.network import DelayModel, LinkPolicy
from repro.sim.world import World


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
