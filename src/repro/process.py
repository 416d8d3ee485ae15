"""The process model every fabric runs: processes, their environment, seeds.

A :class:`Process` is a deterministic reactive object driven entirely by
three callbacks — :meth:`Process.on_start`, :meth:`Process.on_message` and
:meth:`Process.on_timer` — exactly the shape of a round-based protocol in
the paper: local steps happen only in reaction to message receipts and
timer expirations.

Nothing here knows which fabric hosts the process. The simulator
(:mod:`repro.sim`) and the deployed runtime (:mod:`repro.net`) each hand a
:class:`ProcessEnv` a clock with the :class:`Clock` surface and a fabric
with the :class:`Fabric` surface, so the same protocol objects run on
virtual time and on sockets. :data:`LinkPolicy` is the one seam through
which any fabric lets a policy decide what the wire does to a message.

The paper's broadcast ``send m to Π`` includes the sender itself; our
:meth:`Process.broadcast` does the same (a process has a FIFO channel to
itself like to anyone else).
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Protocol

from repro.errors import ProcessError
from repro.observability.registry import (
    MODULE_PROCESS,
    MetricsRegistry,
    ModuleMetrics,
    NULL_METRICS,
)
from repro.observability.trace import Trace

#: A link policy's verdict on one ``src != dst`` send, asked as
#: ``link(now, src, dst, payload)``: ``None`` delivers the payload once;
#: otherwise one ``(payload, extra_delay)`` per copy — none drops it,
#: several duplicate it, and a positive extra delay makes that copy late
#: (it escapes the FIFO clamp, so later traffic may overtake it). Every
#: fabric takes one: :class:`~repro.sim.network.Network`,
#: :class:`~repro.net.transport.PeerTransport` and
#: :class:`~repro.net.client.NetClient`.
#: :class:`~repro.sim.network.LinkModel` and :meth:`LinkFaultInjector.plan_deliveries
#: <repro.faults.injector.LinkFaultInjector.plan_deliveries>` are policies.
#: The contract is the call alone; :class:`~repro.sim.network.Network`
#: also traces the cuts and heals of a ``LinkModel``'s partitions (not of
#: a wrapped one).
LinkPolicy = Callable[[float, int, int, Any], "list[tuple[Any, float]] | None"]


class CancellationToken:
    """Mutable flag shared between a scheduled callback and whoever may
    cancel it."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Clock(Protocol):
    """What a process's timers need of a scheduler."""

    @property
    def now(self) -> float: ...

    def schedule_after(
        self, delay: float, kind: str, callback: Callable[[], None]
    ) -> CancellationToken: ...


class Fabric(Protocol):
    """What a process's sends need of a network."""

    def send(self, src: int, dst: int, payload: Any) -> None: ...


class SeededRng:
    """A named, forkable random stream.

    Every source of nondeterminism in a run (message delays, adversary
    choices, failure-detector noise) draws from its own named substream
    derived from the run's master seed. Two runs with the same seed
    therefore produce identical traces, and adding a new consumer of
    randomness does not perturb the streams of existing consumers.

    ``fork(name)`` derives a child stream whose seed is a cryptographic
    hash of the parent seed and the child name, so sibling streams are
    statistically independent and stable across code changes elsewhere.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self._seed = int(seed)
        self._name = name
        self._random = random.Random(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}/{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def name(self) -> str:
        return self._name

    def fork(self, name: str) -> "SeededRng":
        """Derive an independent child stream labelled ``name``."""
        return SeededRng(self._seed, f"{self._name}/{name}")

    # -- drawing primitives -------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def choice(self, seq):
        return self._random.choice(seq)

    def sample(self, population, k: int):
        return self._random.sample(population, k)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def chance(self, probability: float) -> bool:
        """Bernoulli draw: ``True`` with the given probability."""
        return self._random.random() < probability

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededRng(seed={self._seed}, name={self._name!r})"


class ProcessEnv:
    """Everything a process may touch: its window onto the hosting fabric.

    The environment also implements the *crash* fault at the substrate
    level: once :meth:`mark_crashed` is called, the process neither sends
    nor receives anything, matching the halt semantics of the crash model.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        scheduler: Clock,
        network: Fabric,
        trace: Trace,
        rng: SeededRng,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.pid = pid
        self.n = n
        self.scheduler = scheduler
        self.network = network
        self.trace = trace
        self.rng = rng
        #: The world's metrics registry; a no-op stand-in when the env is
        #: constructed outside a world (unit tests), so module code can
        #: instrument unconditionally.
        self.metrics: MetricsRegistry | Any = (
            metrics if metrics is not None else NULL_METRICS
        )
        self._own_metrics: ModuleMetrics | Any = self.metrics.scope(
            MODULE_PROCESS, pid
        )
        self.crashed = False
        self.crash_time: float | None = None
        self._timers: dict[str, CancellationToken] = {}

    @property
    def now(self) -> float:
        return self.scheduler.now

    def mark_crashed(self) -> None:
        """Halt the process permanently (crash-model fault)."""
        if not self.crashed:
            self.crashed = True
            self.crash_time = self.now
            self._own_metrics.inc("crashes")
            self.trace.record(self.now, "crash", process=self.pid)

    def send(self, dst: int, payload: Any) -> None:
        if self.crashed:
            return
        self.network.send(self.pid, dst, payload)

    def set_timer(self, owner: "Process", name: str, delay: float) -> None:
        """(Re)arm the named timer; a previous pending instance is cancelled."""
        self.cancel_timer(name)
        token = self.scheduler.schedule_after(
            delay, "timer", lambda: self._fire_timer(owner, name)
        )
        self._own_metrics.inc("timers_set")
        self._timers[name] = token

    def cancel_timer(self, name: str) -> None:
        token = self._timers.pop(name, None)
        if token is not None:
            token.cancel()

    def _fire_timer(self, owner: "Process", name: str) -> None:
        self._timers.pop(name, None)
        if self.crashed:
            return
        self._own_metrics.inc("timers_fired")
        owner.on_timer(name)


class Process:
    """Base class for all processes, simulated or deployed.

    Subclasses implement the protocol logic in the three ``on_*`` hooks and
    use the ``send``/``broadcast``/``set_timer`` helpers. A process must be
    bound to an environment (by :class:`~repro.sim.world.World` or
    :class:`~repro.net.node.NetNode`) before it runs.
    """

    def __init__(self) -> None:
        self._env: ProcessEnv | None = None

    # -- wiring ---------------------------------------------------------

    def bind(self, env: ProcessEnv) -> None:
        if self._env is not None:
            raise ProcessError(f"process {env.pid} bound twice")
        self._env = env

    @property
    def env(self) -> ProcessEnv:
        if self._env is None:
            raise ProcessError("process used before bind()")
        return self._env

    @property
    def pid(self) -> int:
        return self.env.pid

    @property
    def n(self) -> int:
        return self.env.n

    @property
    def now(self) -> float:
        return self.env.now

    @property
    def crashed(self) -> bool:
        return self._env is not None and self._env.crashed

    # -- actions ----------------------------------------------------------

    def send(self, dst: int, payload: Any) -> None:
        """Send ``payload`` to process ``dst`` over the FIFO network."""
        self.env.send(dst, payload)

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every process, the sender included."""
        for dst in range(self.n):
            self.send(dst, payload)

    def set_timer(self, name: str, delay: float) -> None:
        """(Re)arm a named local timer firing after ``delay``."""
        self.env.set_timer(self, name, delay)

    def cancel_timer(self, name: str) -> None:
        self.env.cancel_timer(name)

    def record(self, kind: str, **detail: Any) -> None:
        """Append a process-attributed event to the run trace."""
        self.env.trace.record(self.now, kind, process=self.pid, **detail)

    # -- hooks (overridden by protocols) ------------------------------------

    def on_start(self) -> None:
        """Called once when the world starts, before any delivery."""

    def on_message(self, src: int, payload: Any) -> None:
        """Called for every message delivered to this process."""

    def on_timer(self, name: str) -> None:
        """Called when a timer armed with :meth:`set_timer` fires."""

    # -- delivery dispatch (called by the world) -----------------------------

    def deliver(self, src: int, payload: Any) -> None:
        if self.crashed:
            return
        self.on_message(src, payload)
