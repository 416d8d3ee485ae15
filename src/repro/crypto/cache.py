"""Verified-signature caching (ROADMAP item 2, docs/PERFORMANCE.md).

Profiling the certificate-heavy service path shows the simulator is
dominated by re-verifying the *same* signed envelopes: every receiver of
a quorum certificate re-encodes and re-MACs entries that some module of
the same OS process already checked. :class:`SignatureCache` memoizes
verification *verdicts* so each distinct signature is checked once per
process instead of once per receiver.

Safety argument (the full version lives in docs/PERFORMANCE.md): a cache
entry is keyed by ``(key domain, claimed signer, SHA-256 digest of the
signed bytes, MAC bytes)``. A hit therefore requires byte-identical
signed content *and* an identical MAC under the same key domain and
signer identity — exactly the inputs of the real check. A tampered
envelope changes the signed bytes, so its digest matches nothing cached
and it falls through to a real (failing) verification; a cached accept
can never launder content that was not itself verified. Cross-slot and
cross-run confusion is impossible because the key-authority *domain*
(``n``, derivation seed) is part of the key.

The module also owns the global kill-switch used by the saturation
benchmarks to measure honest pre-cache baselines: :func:`set_caching`
and the :func:`caching_disabled` context manager turn off both the
verdict caches and the per-object canonical-encoding memos
(:mod:`repro.crypto.encoding`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.observability.registry import ModuleMetrics, NULL_METRICS

#: Process-wide switch covering every verification/encoding memo.
_CACHING = True


def caching_enabled() -> bool:
    """True iff verification caches and encoding memos are active."""
    return _CACHING


def set_caching(enabled: bool) -> bool:
    """Set the global caching switch; returns the previous value."""
    global _CACHING
    previous = _CACHING
    _CACHING = bool(enabled)
    return previous


@contextmanager
def caching_disabled() -> Iterator[None]:
    """Run a block with every cache off — the benchmark baseline mode."""
    previous = set_caching(False)
    try:
        yield
    finally:
        set_caching(previous)


class SignatureCache:
    """Bounded memo of signature-verification verdicts.

    Keys are ``(domain, signer, payload_digest, mac)`` tuples (see module
    docstring for why that keying is sound). Both accepts and rejects are
    cached: a reject is as content-pinned as an accept, and Byzantine
    peers replaying a bad envelope should not buy a MAC computation per
    replay.

    Verdicts are filed per key domain (a key's first component), so an
    owner that retires a domain — a service replica truncating the slots
    below its stable checkpoint — drops exactly its verdicts with
    :meth:`drop_domain`, in time proportional to what it drops.
    """

    __slots__ = ("max_entries", "hits", "misses", "_domains", "_size", "_metrics")

    def __init__(self, max_entries: int = 1 << 16) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        #: domain -> key -> verdict, both in insertion order.
        self._domains: dict[object, dict[tuple, bool]] = {}
        self._size = 0
        self._metrics: ModuleMetrics = NULL_METRICS

    def attach_metrics(self, metrics: ModuleMetrics) -> None:
        """Export hit/miss counters through ``metrics`` (first bind wins).

        A cache may be shared by several verifying components of one
        process (all slot engines of a service replica, for instance);
        the first scope attached keeps the counters, so totals are not
        split across rebinding.
        """
        if self._metrics is NULL_METRICS:
            self._metrics = metrics

    def lookup(self, key: tuple) -> bool | None:
        """The cached verdict for ``key``, or ``None`` on a miss."""
        verdicts = self._domains.get(key[0])
        verdict = None if verdicts is None else verdicts.get(key)
        if verdict is None:
            self.misses += 1
            self._metrics.inc("sig_cache_misses")
        else:
            self.hits += 1
            self._metrics.inc("sig_cache_hits")
        return verdict

    def store(self, key: tuple, verdict: bool) -> None:
        verdicts = self._domains.get(key[0])
        if verdicts is None:
            verdicts = self._domains[key[0]] = {}
        elif key in verdicts:
            verdicts[key] = verdict
            return
        if self._size >= self.max_entries:
            # Drop the oldest entry of the oldest domain; the cache is a
            # memo, so eviction costs a re-verification, never safety.
            oldest = next(iter(self._domains))
            victims = self._domains[oldest]
            del victims[next(iter(victims))]
            if not victims and oldest != key[0]:
                del self._domains[oldest]
            self._size -= 1
            self._metrics.inc("sig_cache_evictions")
        verdicts[key] = verdict
        self._size += 1

    def drop_domain(self, domain: object) -> None:
        """Forget every verdict filed under ``domain``."""
        verdicts = self._domains.pop(domain, None)
        if verdicts is not None:
            self._size -= len(verdicts)

    def clear(self) -> None:
        """Forget every verdict (a restarting process starts cold)."""
        self._domains.clear()
        self._size = 0

    def __len__(self) -> int:
        return self._size
