"""World: composition root of a simulated asynchronous system.

A :class:`World` wires a set of :class:`~repro.process.Process`
instances to one scheduler, one network and one trace, starts them, and
runs the event loop. It also owns substrate-level fault scheduling for the
*crash* model (arbitrary-fault behaviour is implemented by Byzantine
process subclasses in :mod:`repro.byzantine`, not by the world).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.observability.registry import MetricsRegistry
from repro.observability.trace import Trace
from repro.process import LinkPolicy, Process, ProcessEnv
from repro.sim.network import DelayModel, Network
from repro.sim.scheduler import RunResult, Scheduler
from repro.sim.transport import ReliableTransport

#: Accepted values of ``World(transport=...)``.
TRANSPORTS = ("none", "reliable", "no-retransmit")
#: Retransmission timeout and retry budget of the reliable transport.
TRANSPORT_RTO = 4.0
TRANSPORT_RETRY_LIMIT = 20


class World:
    """A closed system of ``n`` processes over a reliable FIFO network.

    With a faulty ``link`` policy installed (a
    :class:`~repro.sim.network.LinkModel`, a fault plan's injector), the
    channels are only reliable again if ``transport="reliable"`` slides a
    :class:`ReliableTransport` between the processes and the wire;
    ``transport="no-retransmit"`` is the ablation that frames and acks
    but never resends, and ``"none"`` exposes the raw fabric.
    """

    def __init__(
        self,
        processes: Sequence[Process],
        seed: int = 0,
        delay_model: DelayModel | None = None,
        fifo: bool = True,
        link: LinkPolicy | None = None,
        transport: str = "none",
    ) -> None:
        if not processes:
            raise ConfigurationError("a world needs at least one process")
        if transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
            )
        self.scheduler = Scheduler(seed=seed)
        self.trace = Trace()
        self.metrics = MetricsRegistry()
        self.scheduler.metrics = self.metrics
        self.network = Network(
            self.scheduler,
            self.trace,
            delay_model=delay_model,
            fifo=fifo,
            metrics=self.metrics,
            link=link,
        )
        self.transport: ReliableTransport | None = None
        fabric: Network | ReliableTransport = self.network
        if transport != "none":
            self.transport = ReliableTransport(
                self.network,
                self.scheduler,
                self.trace,
                metrics=self.metrics,
                crashed=self.is_crashed,
                rto=TRANSPORT_RTO,
                retry_limit=TRANSPORT_RETRY_LIMIT,
                retransmit=(transport != "no-retransmit"),
            )
            fabric = self.transport
        self.processes: list[Process] = list(processes)
        self._envs: list[ProcessEnv] = []
        n = len(self.processes)
        for pid, process in enumerate(self.processes):
            env = ProcessEnv(
                pid=pid,
                n=n,
                scheduler=self.scheduler,
                network=fabric,
                trace=self.trace,
                rng=self.scheduler.rng.fork(f"process-{pid}"),
                metrics=self.metrics,
            )
            process.bind(env)
            self._envs.append(env)
            fabric.register(pid, process.deliver)
        self._started = False

    @property
    def n(self) -> int:
        return len(self.processes)

    @property
    def now(self) -> float:
        return self.scheduler.now

    # -- crash-model faults --------------------------------------------------

    def crash_at(self, pid: int, time: float) -> None:
        """Schedule a crash (permanent halt) of ``pid`` at virtual ``time``."""
        self._check_pid(pid)
        self.scheduler.schedule_at(
            time, "crash", lambda: self._envs[pid].mark_crashed()
        )

    def crash_now(self, pid: int) -> None:
        """Crash ``pid`` immediately."""
        self._check_pid(pid)
        self._envs[pid].mark_crashed()

    def is_crashed(self, pid: int) -> bool:
        self._check_pid(pid)
        return self._envs[pid].crashed

    # -- execution ------------------------------------------------------------

    def start(self) -> None:
        """Invoke every process's ``on_start`` hook (at time 0)."""
        if self._started:
            raise ConfigurationError("world started twice")
        self._started = True
        for process in self.processes:
            self.scheduler.schedule_at(
                self.scheduler.now, "start", process.on_start
            )

    def run(
        self,
        max_events: int | None = 1_000_000,
        max_time: float | None = None,
    ) -> RunResult:
        """Start (if needed) and run the system to quiescence or a budget."""
        if not self._started:
            self.start()
        return self.scheduler.run(max_events=max_events, max_time=max_time)

    def _check_pid(self, pid: int) -> None:
        if not 0 <= pid < self.n:
            raise ConfigurationError(f"unknown process id {pid}")
