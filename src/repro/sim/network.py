"""Point-to-point network: reliable FIFO by default, faulty on request.

The default configuration implements exactly the channel assumptions of
the paper's model (Section 2): every pair of processes is connected by a
*reliable* channel (no loss, no duplication, no corruption in transit)
that is *FIFO*, with no bound on transfer delays. Delay distributions are
pluggable so the adversary can delay messages arbitrarily (but finitely)
— the standard way to model asynchrony in a discrete-event simulator.

What the wire does to a message is decided by one :data:`LinkPolicy`,
the seam every fabric of the repo shares. :class:`LinkModel` is the
policy a production deployment actually faces: per-link message loss,
duplication, burst reordering and scripted (healing) :class:`Partition`
windows, all drawn from the run's seed so faulty runs replay exactly. The
paper's channel assumptions are then *restored* one layer up by
:mod:`repro.sim.transport`, whose seq/ack/retransmit machinery is what
lets the five Figure-1 modules run unmodified above a lossy fabric (see
``docs/NETWORK.md``).

Corruption and *process* omission remain process faults in this paper and
live in :mod:`repro.byzantine`; what lives here is strictly what a wire
can do to a frame in transit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Protocol

from repro.errors import ConfigurationError, NetworkError
from repro.observability.registry import (
    MODULE_NETWORK,
    MetricsRegistry,
)
from repro.observability.trace import Trace
from repro.process import SeededRng
from repro.sim.scheduler import Scheduler

DeliverCallback = Callable[[int, Any], None]

# Minimal spacing inserted between two deliveries on the same channel so
# FIFO order is preserved even when a sampled delay would reorder them.
_FIFO_EPSILON = 1e-9


class DelayModel(Protocol):
    """Strategy drawing the transfer delay of one message."""

    def sample(self, rng: SeededRng, src: int, dst: int) -> float:
        """Return a finite, non-negative delay for a ``src -> dst`` message."""
        ...


class FixedDelay:
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise NetworkError(f"negative delay {delay!r}")
        self.delay = delay

    def sample(self, rng: SeededRng, src: int, dst: int) -> float:
        return self.delay


class UniformDelay:
    """Delays drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if not 0 <= low <= high:
            raise NetworkError(f"invalid delay range [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: SeededRng, src: int, dst: int) -> float:
        return rng.uniform(self.low, self.high)


class ExponentialDelay:
    """Heavy-ish tailed delays: ``base + Exp(mean)`` capped at ``cap``.

    The cap keeps every delay finite, as the asynchronous model requires
    (messages are eventually delivered).
    """

    def __init__(self, mean: float = 1.0, base: float = 0.1, cap: float = 50.0) -> None:
        if mean <= 0 or base < 0 or cap <= base:
            raise NetworkError("invalid exponential delay parameters")
        self.mean = mean
        self.base = base
        self.cap = cap

    def sample(self, rng: SeededRng, src: int, dst: int) -> float:
        return min(self.base + rng.expovariate(1.0 / self.mean), self.cap)


#: The named delay models a scenario or a plan may pick: name ->
#: (constructor, default parameters).
DELAY_MODELS: dict[str, tuple[type, dict[str, float]]] = {
    "uniform": (UniformDelay, {"low": 0.5, "high": 1.5}),
    "fixed": (FixedDelay, {"delay": 1.0}),
    "exponential": (ExponentialDelay, {"mean": 1.0, "base": 0.1, "cap": 50.0}),
}


class ScriptedDelay:
    """Payload-aware delays: the adversarial scheduler of experiment E14.

    Rules are ``(matcher, delay)`` pairs evaluated in order; the first
    matcher returning True fixes the message's delay, otherwise the
    default applies. Matchers receive ``(src, dst, payload)``, so the
    adversary can, e.g., rush a NEXT past the CURRENT that preceded it on
    the same channel — which is only deliverable on a non-FIFO network.
    """

    def __init__(
        self,
        rules: list[tuple["ScriptMatcher", float]],
        default: float = 1.0,
    ) -> None:
        self.rules = list(rules)
        self.default = default

    def sample(self, rng: SeededRng, src: int, dst: int) -> float:
        return self.default

    def sample_for(
        self, rng: SeededRng, src: int, dst: int, payload: Any
    ) -> float:
        for matcher, delay in self.rules:
            if matcher(src, dst, payload):
                return delay
        return self.default


ScriptMatcher = Callable[[int, int, Any], bool]


class TargetedSlowdown:
    """Adversarial asynchrony: traffic touching ``slow`` processes is dilated.

    Used by experiments to provoke wrongful suspicions of correct
    processes (the failure-detector mistakes the paper allows).
    """

    def __init__(
        self,
        inner: DelayModel,
        slow: frozenset[int] | set[int],
        factor: float = 10.0,
    ) -> None:
        if factor < 1.0:
            raise NetworkError(f"slowdown factor must be >= 1, got {factor!r}")
        self.inner = inner
        self.slow = frozenset(slow)
        self.factor = factor

    def sample(self, rng: SeededRng, src: int, dst: int) -> float:
        delay = self.inner.sample(rng, src, dst)
        if src in self.slow or dst in self.slow:
            return delay * self.factor
        return delay


@dataclass(frozen=True, slots=True)
class Partition:
    """A scripted network partition that later heals.

    During ``[start, heal)`` every message whose endpoints sit in
    *different* groups is severed (dropped on the wire); at ``heal`` the
    cut disappears. Pids absent from every group are unaffected — list a
    pid in some group to make it partitionable. Groups must be disjoint.
    """

    start: float
    heal: float
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.start < 0 or self.heal <= self.start:
            raise ConfigurationError(
                f"partition window [{self.start}, {self.heal}) is not a "
                "non-empty forward window"
            )
        if len(self.groups) < 2:
            raise ConfigurationError("a partition needs at least two groups")
        if not all(self.groups):
            raise ConfigurationError("empty partition group")
        pids = [pid for group in self.groups for pid in group]
        repeated = sorted({pid for pid in pids if pids.count(pid) > 1})
        if repeated:
            raise ConfigurationError(
                f"pids {repeated} appear twice in the partition groups"
            )

    def severs(self, now: float, src: int, dst: int) -> bool:
        """Is the ``src -> dst`` link cut at virtual time ``now``?"""
        if not self.start <= now < self.heal:
            return False
        side_src = side_dst = None
        for index, group in enumerate(self.groups):
            if src in group:
                side_src = index
            if dst in group:
                side_dst = index
        return side_src is not None and side_dst is not None and side_src != side_dst

    @classmethod
    def parse(cls, start: float, heal: float, spec: str, n: int) -> "Partition":
        """The window ``[start, heal)`` cutting ``spec`` (``"0,1|2,3"``).

        The one parser of the group syntax, shared by the campaign
        scenarios, the fault plans and ``repro run --partition``: each
        side is sorted and every pid must lie in ``range(n)``; the
        constructor checks the rest.
        """
        try:
            groups = tuple(
                tuple(sorted(int(pid) for pid in side.split(",")))
                for side in spec.split("|")
            )
        except ValueError as exc:
            raise ConfigurationError(
                f"malformed partition groups {spec!r} (expected e.g. '0,1|2,3')"
            ) from exc
        for group in groups:
            for pid in group:
                if not 0 <= pid < n:
                    raise ConfigurationError(
                        f"partition pid {pid} out of range for n={n}"
                    )
        return cls(start, heal, groups)


class LinkModel:
    """Composable per-link fault policy: loss, duplication, reordering, cuts.

    A :data:`LinkPolicy`. Probabilities are per message; every draw comes
    from ``SeededRng(seed).fork("links")``, so two runs with the same seed
    lose, duplicate and reorder exactly the same messages. A message
    inside a :class:`Partition` window that severs its link is dropped.

    Args:
        loss: probability a message silently vanishes in transit.
        duplication: probability the wire delivers a second copy.
        reorder: probability a copy escapes the FIFO clamp and is
            additionally delayed by up to ``reorder_spread`` (a burst
            reordering: later traffic on the channel may overtake it).
        reorder_spread: maximum extra delay of a reordered copy.
        partitions: scripted :class:`Partition` windows (may overlap).
        seed: the run's seed — pass the world's, so one seed fixes the
            run; it has no default so a caller cannot silently lose it.
    """

    def __init__(
        self,
        loss: float = 0.0,
        duplication: float = 0.0,
        reorder: float = 0.0,
        reorder_spread: float = 5.0,
        partitions: tuple[Partition, ...] | list[Partition] = (),
        *,
        seed: int,
    ) -> None:
        for name, probability in (
            ("loss", loss), ("duplication", duplication), ("reorder", reorder)
        ):
            if not 0.0 <= probability < 1.0:
                raise ConfigurationError(
                    f"link {name} probability must be in [0, 1), got {probability!r}"
                )
        if reorder_spread <= 0:
            raise ConfigurationError(
                f"reorder_spread must be positive, got {reorder_spread!r}"
            )
        self.loss = loss
        self.duplication = duplication
        self.reorder = reorder
        self.reorder_spread = reorder_spread
        self.partitions = tuple(partitions)
        self._rng = SeededRng(seed).fork("links")

    @property
    def faultless(self) -> bool:
        return (
            not self.loss
            and not self.duplication
            and not self.reorder
            and not self.partitions
        )

    def __call__(
        self, now: float, src: int, dst: int, payload: Any
    ) -> list[tuple[Any, float]]:
        if any(p.severs(now, src, dst) for p in self.partitions):
            return []
        rng = self._rng
        if self.loss and rng.chance(self.loss):
            return []
        copies = [(payload, self._reorder_delay())]
        if self.duplication and rng.chance(self.duplication):
            copies.append((payload, self._reorder_delay()))
        return copies

    def _reorder_delay(self) -> float:
        if self.reorder and self._rng.chance(self.reorder):
            return self._rng.uniform(0.0, self.reorder_spread)
        return 0.0


class Network:
    """Point-to-point network over a :class:`~repro.sim.scheduler.Scheduler`.

    Processes are registered with a delivery callback; :meth:`send`
    schedules a delivery event whose timestamp respects per-channel FIFO
    order regardless of the sampled delays. An optional :data:`LinkPolicy`
    (a :class:`LinkModel`, a fault plan's injector) decides what the wire
    does to each message between two distinct processes; every drop,
    duplicate and partition transition is traced and counted so nothing
    the wire does is invisible to the oracles.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        trace: Trace,
        delay_model: DelayModel | None = None,
        fifo: bool = True,
        metrics: MetricsRegistry | None = None,
        link: LinkPolicy | None = None,
    ) -> None:
        self._scheduler = scheduler
        self._trace = trace
        self._metrics = metrics
        self._link = link
        self._delay_model: DelayModel = delay_model or UniformDelay()
        self._rng = scheduler.rng.fork("network")
        # A LinkModel's partition cuts and heals are traced, and its drops
        # inside a window read "partition"; every other drop reads "link".
        self._partitions = link.partitions if isinstance(link, LinkModel) else ()
        self._inboxes: dict[int, DeliverCallback] = {}
        self._last_delivery: dict[tuple[int, int], float] = {}
        self._messages_sent = 0
        self._messages_delivered = 0
        self._messages_dropped = 0
        self._messages_duplicated = 0
        # FIFO is the paper's channel assumption; ``fifo=False`` exists
        # only so experiment E14 can demonstrate the assumption is
        # load-bearing (agreement breaks without it).
        self._fifo = fifo
        for index, window in enumerate(self._partitions):
            for kind, time in (
                ("partition-start", window.start),
                ("partition-heal", window.heal),
            ):
                transition = partial(self._partition_transition, kind, index, window)
                scheduler.schedule_at(time, "partition", transition)

    def _partition_transition(self, kind: str, index: int, partition: Partition) -> None:
        self._trace.record(
            self._scheduler.now,
            kind,
            partition=index,
            groups=[list(group) for group in partition.groups],
        )
        if self._metrics is not None:
            self._metrics.inc(MODULE_NETWORK, "partition_transitions")

    @property
    def messages_sent(self) -> int:
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        """First-copy deliveries only — duplicate copies are counted apart."""
        return self._messages_delivered

    @property
    def messages_dropped(self) -> int:
        """Messages the link policy destroyed in transit."""
        return self._messages_dropped

    @property
    def messages_duplicated(self) -> int:
        """Extra copies the link policy delivered beyond the first."""
        return self._messages_duplicated

    def register(self, process_id: int, deliver: DeliverCallback) -> None:
        """Attach a process's delivery callback to the network."""
        if process_id in self._inboxes:
            raise NetworkError(f"process {process_id} registered twice")
        self._inboxes[process_id] = deliver

    def send(self, src: int, dst: int, payload: Any) -> None:
        """Transmit ``payload`` from ``src`` to ``dst`` (may be ``src`` itself).

        The message is delivered after a finite delay drawn from the delay
        model, never before any earlier message on the same channel; the
        link policy, if any, is asked first when ``src != dst``.
        """
        if dst not in self._inboxes:
            raise NetworkError(f"send to unknown process {dst}")
        if src not in self._inboxes:
            raise NetworkError(f"send from unknown process {src}")
        now = self._scheduler.now
        metrics = self._metrics
        self._messages_sent += 1
        if metrics is not None:
            metrics.inc(MODULE_NETWORK, "messages_sent", pid=src)
        copies = None
        if self._link is not None and src != dst:
            copies = self._link(now, src, dst, payload)
        if copies is None:
            deliver_at = self._schedule_copy(now, src, dst, payload)
        else:
            if not copies:
                self._drop(now, src, dst, payload)
                return
            extra = len(copies) - 1
            if extra:
                self._messages_duplicated += extra
                if metrics is not None:
                    metrics.inc(MODULE_NETWORK, "messages_duplicated", extra, pid=src)
                    metrics.inc(MODULE_NETWORK, f"dup[{src}->{dst}]", extra)
            (first, delay), *duplicates = copies
            deliver_at = self._schedule_copy(
                now, src, dst, first, extra_delay=delay
            )
            for copy, delay in duplicates:
                self._schedule_copy(
                    now, src, dst, copy, duplicate=True, extra_delay=delay
                )
        if metrics is not None:
            # Scheduled transfer delay: FIFO back-pressure included, so the
            # histogram reflects what the receiver actually experiences.
            metrics.observe(
                MODULE_NETWORK, "delivery_latency", deliver_at - now, pid=dst
            )
            metrics.gauge_max(
                MODULE_NETWORK,
                "in_flight_max",
                self._messages_sent - self._messages_delivered
                - self._messages_dropped,
            )

    def _drop(self, now: float, src: int, dst: int, payload: Any) -> None:
        """The wire destroyed the message: count and trace, never deliver."""
        self._messages_dropped += 1
        if self._metrics is not None:
            self._metrics.inc(MODULE_NETWORK, "messages_dropped", pid=src)
            self._metrics.inc(MODULE_NETWORK, f"drop[{src}->{dst}]")
        cut = any(p.severs(now, src, dst) for p in self._partitions)
        reason = "partition" if cut else "link"
        self._trace.record(
            now, "link-drop", process=src, dst=dst, payload=payload, reason=reason
        )

    def _schedule_copy(
        self,
        now: float,
        src: int,
        dst: int,
        payload: Any,
        duplicate: bool = False,
        extra_delay: float = 0.0,
    ) -> float:
        """Sample a delay and schedule one delivery; returns the timestamp."""
        sample_for = getattr(self._delay_model, "sample_for", None)
        if sample_for is not None:
            delay = sample_for(self._rng, src, dst, payload)
        else:
            delay = self._delay_model.sample(self._rng, src, dst)
        if delay < 0:
            raise NetworkError(f"delay model produced negative delay {delay!r}")
        channel = (src, dst)
        if extra_delay > 0:
            # A late copy escapes the FIFO clamp (and does not tighten
            # it), so later traffic on the channel may overtake it.
            deliver_at = now + delay + extra_delay
            if self._metrics is not None:
                self._metrics.inc(MODULE_NETWORK, "messages_reordered", pid=src)
        elif self._fifo:
            earliest = self._last_delivery.get(channel, 0.0) + _FIFO_EPSILON
            deliver_at = max(now + delay, earliest)
            self._last_delivery[channel] = deliver_at
        else:
            deliver_at = now + delay
        self._trace.record(
            now,
            "send",
            process=src,
            dst=dst,
            payload=payload,
            deliver_at=deliver_at,
            **({"duplicate": True} if duplicate else {}),
        )
        self._scheduler.schedule_at(
            deliver_at,
            "deliver",
            lambda: self._deliver(src, dst, payload, duplicate),
            meta=("deliver", src, dst, payload),
        )
        return deliver_at

    def _deliver(
        self, src: int, dst: int, payload: Any, duplicate: bool = False
    ) -> None:
        if duplicate:
            if self._metrics is not None:
                self._metrics.inc(
                    MODULE_NETWORK, "duplicates_delivered", pid=dst
                )
        else:
            self._messages_delivered += 1
            if self._metrics is not None:
                self._metrics.inc(MODULE_NETWORK, "messages_delivered", pid=dst)
        self._trace.record(
            self._scheduler.now,
            "deliver",
            process=dst,
            src=src,
            payload=payload,
            **({"duplicate": True} if duplicate else {}),
        )
        self._inboxes[dst](src, payload)
