"""Turn a measured window into the metrics ``BENCHMARK.json`` declares.

End-to-end metrics come from an untraced window; per-layer metrics from
a traced one (self times and call counts from ``bench/trace.py``, work
counts from the nodes' own ``MetricsRegistry`` deltas). "Per op" always
divides by the client operations that succeeded inside the window.
"""

from __future__ import annotations

import math
import resource
import statistics
from typing import Any

from bench.trace import LAYERS
from bench.workloads import REPLICAS, Window

Metric = dict[str, Any]  # {"value": number, "unit": str}

#: A latency slice is at least this long and holds at least this many
#: completions (3 beyond the slice's p95).
SLICE_SECONDS = 1.0
SLICE_SAMPLES = 60


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _metric(value: float, unit: str) -> Metric:
    return {"value": value, "unit": unit}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def latency_slices(completions: list[tuple[float, float]]) -> list[list[float]]:
    """Cut a window's completions into consecutive slices of latencies.

    A slice closes once it is ``SLICE_SECONDS`` long *and* holds
    ``SLICE_SAMPLES`` completions; what is left at the end joins the
    last slice.
    """
    slices: list[list[float]] = [[]]
    started = 0.0
    for offset, latency in completions:
        current = slices[-1]
        if offset - started >= SLICE_SECONDS and len(current) >= SLICE_SAMPLES:
            slices.append(current := [])
            started = offset
        current.append(latency)
    if len(slices) > 1 and len(slices[-1]) < SLICE_SAMPLES:
        tail = slices.pop()
        slices[-1] += tail
    return slices


def end_to_end(
    window: Window, setups: list[float], open_loop: bool
) -> dict[str, Metric]:
    """What a user of the deployment sees; one value per declared name.

    On the closed loops a latency metric is the *lower quartile* over
    the window's slices of the slice's percentile. Interference from
    the box is one-sided — it only ever slows a slice down — while a
    change in the program moves every slice, so the calm quarter of the
    window is the steadiest estimate of what the program does (quartile
    spread of p95 over ten runs, whole window against this: 13.7 % and
    5.1 % on ``read_small``, 16.3 % and 9.1 % on ``write_small``). The
    open loops take plain percentiles over the whole window: their 240
    samples are too few to slice (the same comparison read 9.4 % against
    16.8 %), and the crash run is not stationary by design.
    """
    ops = window.completed
    inside = [done for done in window.completions if done[0] < window.seconds]
    if open_loop:
        slices = [[latency for _offset, latency in inside]]
    else:
        slices = latency_slices(inside)

    def calm(q: float) -> float:
        return percentile([percentile(latencies, q) for latencies in slices], 25)

    return {
        "ops_s": _metric(ops / window.seconds, "1/s"),
        "cpu_ms_per_op": _metric(window.cpu_seconds * 1000.0 / ops, "ms"),
        "lat_p50_ms": _metric(calm(50), "ms"),
        "lat_p95_ms": _metric(calm(95), "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        # Linux reports ru_maxrss in KiB.
        "rss_peak_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "wire_bytes_per_op": _metric(
            window.counters.get("net/bytes_sent", 0) / ops, "B"
        ),
    }


def per_layer(window: Window, untraced_cpu_ms_per_op: float) -> dict[str, Metric]:
    """The per-layer budget of a traced window.

    Self times and call counts come from the tracer's spans; work counts
    are the nodes' own registry counters (``module/name``, histograms as
    ``.sum``/``.count``), summed over nodes, as deltas over the window.
    """
    ops = window.completed

    def count(key: str) -> float:
        return window.counters.get(key, 0)

    def calls(*symbols: str) -> int:
        return sum(window.spans[f"repro.{symbol}"][1] for symbol in symbols)

    def hit_ratio(cache: str) -> float:
        hits = count(f"{cache}_hits")
        return _ratio(hits, hits + count(f"{cache}_misses"))

    def mean(histogram: str) -> float:
        return _ratio(count(f"{histogram}.sum"), count(f"{histogram}.count"))

    metrics: dict[str, Metric] = {}
    self_ns_total = 0
    for layer in LAYERS:
        spans = [span for span in window.spans.values() if span[0] == layer]
        self_ns = sum(span[2] for span in spans)
        self_ns_total += self_ns
        metrics[f"{layer}.self_ms_per_op"] = _metric(self_ns / 1e6 / ops, "ms")
        metrics[f"{layer}.calls_per_op"] = _metric(
            sum(span[1] for span in spans) / ops, "count"
        )
    wire, signatures = "net.wire", "crypto.signatures.SignatureScheme"
    extras: dict[str, tuple[float, str]] = {
        "net.client.resubmit_ratio": (window.resubmissions / window.attempted, "ratio"),
        "shard.client.route_imbalance": (
            _ratio(max(window.sets_by_group), min(window.sets_by_group)), "ratio",
        ),
        "net.wire.bytes_per_frame": (
            _ratio(count("net/bytes_sent"), count("net/frames_sent")), "B",
        ),
        "net.wire.encode_calls_per_op": (calls(f"{wire}.encode_frame") / ops, "count"),
        "net.wire.decode_calls_per_op": (
            calls(f"{wire}.decode_frame", f"{wire}.FrameAssembler.feed") / ops, "count",
        ),
        "net.transport.frames_per_op": (count("net/frames_sent") / ops, "count"),
        "net.transport.frames_dropped": (
            count("net/frames_dropped") + count("net/client_frames_dropped"), "count",
        ),
        "net.node.reads_served_per_op": (count("net/reads_served") / ops, "count"),
        "service.replica.batch_occupancy": (mean("service/batch_occupancy"), "count"),
        # Every replica of a group decides every slot and takes every
        # checkpoint: per group, not per node.
        "service.replica.slots_per_op": (
            count("service/slots_decided") / REPLICAS / ops, "count",
        ),
        "service.replica.batches_lost_ratio": (
            _ratio(count("service/batches_lost"), count("service/batches_proposed")),
            "ratio",
        ),
        "service.replica.checkpoints_per_op": (
            count("service/checkpoints_taken") / REPLICAS / ops, "count",
        ),
        "consensus.transformed.rounds_per_slot": (
            _ratio(count("protocol/rounds_started"), count("protocol/decisions")),
            "count",
        ),
        "consensus.transformed.messages_buffered_per_op": (
            count("protocol/messages_buffered") / ops, "count",
        ),
        "consensus.monitor.rejected_per_op": (
            count("non_muteness_fd/messages_rejected") / ops, "count",
        ),
        "consensus.certification.pf_cache_hit_ratio": (
            hit_ratio("certification/pf_cache"), "ratio",
        ),
        "consensus.certification.cert_entries_mean": (
            mean("certification/certificate_entries"), "count",
        ),
        "crypto.signatures.sig_cache_hit_ratio": (
            hit_ratio("signature/sig_cache"), "ratio",
        ),
        "crypto.signatures.verify_calls_per_op": (
            calls(f"{signatures}.verify", f"{signatures}.verify_digest") / ops, "count",
        ),
        "crypto.encoding.canonical_calls_per_op": (
            calls("crypto.encoding.canonical_bytes") / ops, "count",
        ),
        "service.checkpoint.ckpt_cert_cache_hit_ratio": (
            hit_ratio("service/ckpt_cert_cache"), "ratio",
        ),
        "bench.gen_late_p95_ms": (
            percentile(window.late_ms, 95) if window.late_ms else 0.0, "ms",
        ),
        "bench.trace_coverage_ratio": (
            self_ns_total / 1e9 / window.cpu_seconds, "ratio",
        ),
        "bench.trace_overhead_ratio": (
            window.cpu_seconds * 1000.0 / ops / untraced_cpu_ms_per_op, "ratio",
        ),
    }
    metrics.update({name: _metric(*entry) for name, entry in extras.items()})
    return metrics
