"""Reliable-channel transport: the paper's channels, implemented not assumed.

The paper's system model (Section 2) gives every pair of processes a
reliable FIFO channel. :class:`~repro.sim.network.Network` provides that
only when no :class:`~repro.sim.network.LinkModel` is installed; under
loss, duplication, reordering or partitions the assumption breaks — and
with it every layer above. :class:`ReliableTransport` restores the
assumption on top of the faulty fabric with the classic machinery:

* **per-peer sequence numbers** — every app payload on a ``src -> dst``
  channel is framed as a :class:`DataSegment` carrying the channel's next
  sequence number;
* **cumulative acks** — the receiver answers every data segment with an
  :class:`AckSegment` carrying the highest in-order sequence delivered;
* **retransmission with exponential backoff** — unacked segments are
  resent after a retransmission timeout (RTO) that doubles per silent
  round up to ``max_rto``, and resets once an ack shows progress; after
  ``retry_limit`` consecutive silent rounds the channel is abandoned
  (the peer is crashed or permanently partitioned — retransmitting
  forever would keep the world from quiescing);
* **duplicate suppression + FIFO reassembly** — the receiver delivers
  each sequence number exactly once, in order, buffering out-of-order
  arrivals until the gap fills.

The transport exposes the same ``register``/``send`` surface as the
network, so :class:`~repro.sim.world.World` can slide it between the
process environments and the wire without any protocol module noticing —
exactly the modularity the paper's Figure 1 argues for. A process's
channel to itself never leaves the process, so self-sends bypass framing.

Everything is attributed to the ``transport`` module of the
:class:`~repro.observability.registry.MetricsRegistry`, including
per-link ``retransmit[src->dst]`` / ``ack[src->dst]`` counters that
``repro report`` aggregates into its link-health table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError, NetworkError
from repro.observability.export import describe_payload
from repro.observability.registry import MODULE_TRANSPORT, MetricsRegistry
from repro.observability.trace import Trace
from repro.process import CancellationToken
from repro.sim.network import DeliverCallback, Network
from repro.sim.scheduler import Scheduler


@dataclass(frozen=True, slots=True)
class DataSegment:
    """One framed app payload: ``seq`` is per ``(src, dst)`` channel."""

    seq: int
    payload: Any

    def describe(self) -> str:
        return f"seq:{self.seq} {describe_payload(self.payload)}"


@dataclass(frozen=True, slots=True)
class AckSegment:
    """Cumulative ack: every seq ``<= ack`` was delivered in order."""

    ack: int

    def describe(self) -> str:
        return f"ack:{self.ack}"


@dataclass(slots=True)
class _SendChannel:
    """Sender-side state of one ``(src, dst)`` channel."""

    next_seq: int = 0
    #: seq -> payload, awaiting ack.
    unacked: dict[int, Any] = field(default_factory=dict)
    rto: float = 0.0
    #: Consecutive retransmission rounds without an ack showing progress.
    silent_rounds: int = 0
    timer: CancellationToken | None = None
    abandoned: bool = False


@dataclass(slots=True)
class _RecvChannel:
    """Receiver-side state of one ``(src, dst)`` channel."""

    expected: int = 0
    #: Out-of-order segments parked until the gap fills.
    buffer: dict[int, Any] = field(default_factory=dict)


class ReliableTransport:
    """Seq/ack/retransmit layer making a faulty :class:`Network` reliable.

    Args:
        network: the (possibly faulty) fabric to run over.
        scheduler: the world's scheduler (owns the retransmit timers).
        trace: the world's trace (retransmits and abandons are recorded).
        metrics: the world's registry; ``None`` disables instrumentation.
        crashed: ground-truth predicate — a crashed endpoint neither
            acks, delivers, nor retransmits (crash semantics must hold
            below the transport too).
        rto: initial retransmission timeout per channel.
        backoff: RTO multiplier per silent round (> 1).
        max_rto: RTO ceiling, keeping retransmission alive (not ever
            rarer) through long partitions.
        retry_limit: consecutive silent rounds before a channel is
            abandoned.
        retransmit: master switch; ``False`` keeps framing, acking and
            reassembly but never resends — the ablation demonstrating
            that retransmission is the load-bearing part.
    """

    def __init__(
        self,
        network: Network,
        scheduler: Scheduler,
        trace: Trace,
        metrics: MetricsRegistry | None = None,
        crashed: Callable[[int], bool] | None = None,
        rto: float = 4.0,
        backoff: float = 2.0,
        max_rto: float = 30.0,
        retry_limit: int = 20,
        retransmit: bool = True,
    ) -> None:
        if rto <= 0 or backoff <= 1.0 or max_rto < rto or retry_limit < 1:
            raise ConfigurationError(
                "transport needs rto > 0, backoff > 1, max_rto >= rto and "
                f"retry_limit >= 1; got rto={rto!r}, backoff={backoff!r}, "
                f"max_rto={max_rto!r}, retry_limit={retry_limit!r}"
            )
        self._network = network
        self._scheduler = scheduler
        self._trace = trace
        self._metrics = metrics
        self._crashed = crashed or (lambda pid: False)
        self._base_rto = rto
        self._backoff = backoff
        self._max_rto = max_rto
        self._retry_limit = retry_limit
        self._retransmit = retransmit
        self._upper: dict[int, DeliverCallback] = {}
        self._send_channels: dict[tuple[int, int], _SendChannel] = {}
        self._recv_channels: dict[tuple[int, int], _RecvChannel] = {}
        self._retransmissions = 0
        self._duplicates_suppressed = 0
        self._channels_abandoned = 0

    # -- counters (tests and oracles read these) -----------------------------

    @property
    def retransmissions(self) -> int:
        return self._retransmissions

    @property
    def duplicates_suppressed(self) -> int:
        return self._duplicates_suppressed

    @property
    def channels_abandoned(self) -> int:
        return self._channels_abandoned

    @property
    def retransmit_enabled(self) -> bool:
        return self._retransmit

    # -- network-compatible surface ------------------------------------------

    def register(self, process_id: int, deliver: DeliverCallback) -> None:
        """Attach a process above the transport (and below, on the wire)."""
        if process_id in self._upper:
            raise NetworkError(f"process {process_id} registered twice")
        self._upper[process_id] = deliver
        self._network.register(
            process_id,
            lambda src, segment, dst=process_id: self._on_wire(dst, src, segment),
        )

    def send(self, src: int, dst: int, payload: Any) -> None:
        """Frame and transmit ``payload``; it will be delivered exactly once,
        in order, as long as the channel is not abandoned."""
        if src == dst:
            # The channel to oneself never touches the wire's fault model
            # (the network never faults it either); skip framing entirely.
            self._network.send(src, dst, payload)
            return
        channel = self._send_channel(src, dst)
        seq = channel.next_seq
        channel.next_seq += 1
        channel.unacked[seq] = payload
        if self._metrics is not None:
            self._metrics.inc(MODULE_TRANSPORT, "data_sent", pid=src)
        self._network.send(src, dst, DataSegment(seq=seq, payload=payload))
        if self._retransmit and channel.timer is None:
            self._arm(src, dst, channel)

    # -- sender side ----------------------------------------------------------

    def _send_channel(self, src: int, dst: int) -> _SendChannel:
        channel = self._send_channels.get((src, dst))
        if channel is None:
            channel = _SendChannel(rto=self._base_rto)
            self._send_channels[(src, dst)] = channel
        return channel

    def _arm(self, src: int, dst: int, channel: _SendChannel) -> None:
        channel.timer = self._scheduler.schedule_after(
            channel.rto,
            "retransmit",
            lambda: self._on_rto(src, dst, channel),
        )

    def _disarm(self, channel: _SendChannel) -> None:
        if channel.timer is not None:
            channel.timer.cancel()
            channel.timer = None

    def _on_rto(self, src: int, dst: int, channel: _SendChannel) -> None:
        channel.timer = None
        if not channel.unacked or channel.abandoned or self._crashed(src):
            return
        channel.silent_rounds += 1
        if channel.silent_rounds > self._retry_limit:
            self._abandon(src, dst, channel)
            return
        outstanding = sorted(channel.unacked)
        for seq in outstanding:
            self._retransmissions += 1
            if self._metrics is not None:
                self._metrics.inc(MODULE_TRANSPORT, "retransmissions", pid=src)
                self._metrics.inc(MODULE_TRANSPORT, f"retransmit[{src}->{dst}]")
            self._network.send(
                src, dst, DataSegment(seq=seq, payload=channel.unacked[seq])
            )
        self._trace.record(
            self._scheduler.now,
            "transport-retransmit",
            process=src,
            dst=dst,
            segments=len(outstanding),
            rto=channel.rto,
        )
        channel.rto = min(channel.rto * self._backoff, self._max_rto)
        self._arm(src, dst, channel)

    def _abandon(self, src: int, dst: int, channel: _SendChannel) -> None:
        channel.abandoned = True
        channel.unacked.clear()
        self._channels_abandoned += 1
        if self._metrics is not None:
            self._metrics.inc(MODULE_TRANSPORT, "channels_abandoned", pid=src)
        self._trace.record(
            self._scheduler.now,
            "transport-abandon",
            process=src,
            dst=dst,
            after_rounds=channel.silent_rounds - 1,
        )

    def _on_ack(self, src: int, dst: int, segment: AckSegment) -> None:
        """``dst`` (the original sender) received ``segment`` from ``src``."""
        channel = self._send_channels.get((dst, src))
        if channel is None:
            return
        if self._metrics is not None:
            self._metrics.inc(MODULE_TRANSPORT, "acks_received", pid=dst)
            self._metrics.inc(MODULE_TRANSPORT, f"ack[{dst}->{src}]")
        before = len(channel.unacked)
        for seq in [s for s in channel.unacked if s <= segment.ack]:
            del channel.unacked[seq]
        if len(channel.unacked) < before:
            # Progress: the peer is reachable again, restart patience.
            channel.silent_rounds = 0
            channel.rto = self._base_rto
        self._disarm(channel)
        if channel.unacked and self._retransmit and not channel.abandoned:
            self._arm(dst, src, channel)

    # -- receiver side --------------------------------------------------------

    def _on_wire(self, dst: int, src: int, segment: Any) -> None:
        if self._crashed(dst):
            return
        if isinstance(segment, AckSegment):
            self._on_ack(src, dst, segment)
            return
        if not isinstance(segment, DataSegment):
            # Unframed traffic (self-channel payloads) passes straight up.
            self._upper[dst](src, segment)
            return
        channel = self._recv_channels.setdefault((src, dst), _RecvChannel())
        if segment.seq < channel.expected or segment.seq in channel.buffer:
            self._duplicates_suppressed += 1
            if self._metrics is not None:
                self._metrics.inc(
                    MODULE_TRANSPORT, "duplicates_suppressed", pid=dst
                )
        else:
            channel.buffer[segment.seq] = segment.payload
            if segment.seq > channel.expected and self._metrics is not None:
                self._metrics.inc(
                    MODULE_TRANSPORT, "out_of_order_buffered", pid=dst
                )
            while channel.expected in channel.buffer:
                payload = channel.buffer.pop(channel.expected)
                channel.expected += 1
                if self._metrics is not None:
                    self._metrics.inc(
                        MODULE_TRANSPORT, "delivered_in_order", pid=dst
                    )
                self._upper[dst](src, payload)
        # Ack (cumulatively) even for duplicates: the ack that would have
        # silenced the sender may itself have been lost.
        if self._metrics is not None:
            self._metrics.inc(MODULE_TRANSPORT, "acks_sent", pid=dst)
        self._network.send(dst, src, AckSegment(ack=channel.expected - 1))
