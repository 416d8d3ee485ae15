"""Canonical byte encoding of message values.

Signatures are computed over a *canonical* encoding so that two equal
values always produce identical bytes (and two different values different
bytes). The encoding is a simple tag-length-value scheme over the small
vocabulary of types that protocol messages are built from.

Objects may participate by implementing ``canonical()`` returning a value
built from that vocabulary; dataclass-based messages do this generically.

Performance (docs/PERFORMANCE.md): this function dominates the simulator
profile — every signature check and certificate fingerprint re-encodes
nested message trees. Two optimizations keep it off the flame graph
without changing a single output byte:

* object dispatch via ``getattr(value, "canonical", ...)`` instead of an
  ``isinstance`` check against a ``runtime_checkable`` Protocol (the
  protocol instance check walks ``typing`` internals on every call and
  alone accounted for ~30% of a certificate-heavy run);
* a per-object memo of the finished encoding, stored in the instance
  ``__dict__`` of objects that have one (immutable envelopes opt in by
  not declaring ``__slots__``). The memo is sound because participating
  objects are frozen: equal object, equal bytes, forever. The global
  kill-switch in :mod:`repro.crypto.cache` disables the memo for honest
  benchmark baselines.
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol, runtime_checkable

from repro.crypto import cache as _cache
from repro.errors import EncodingError

#: Instance-dict key of the per-object encoding memo.
_MEMO_ATTR = "_canonical_memo"


@runtime_checkable
class Canonicalizable(Protocol):
    """Objects that can describe themselves as encodable structure."""

    def canonical(self) -> Any:  # pragma: no cover - protocol stub
        ...


def canonical_bytes(value: Any) -> bytes:
    """Deterministically encode ``value`` to bytes.

    Supported vocabulary: ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes``, ``tuple``/``list`` (order-preserving), ``dict`` (sorted by
    encoded key), ``set``/``frozenset`` (sorted by encoding), and any
    object exposing ``canonical()``.
    """
    return _encode(value)


#: Bytes of one value's header: the tag and the u64 payload length.
_TLV_HEAD = 9


def tuple_bytes(payloads: Iterable[bytes]) -> bytes:
    """The encoding of a tuple whose items are already encoded.

    ``tuple_bytes(map(canonical_bytes, items)) == canonical_bytes(tuple(items))``
    — lets certificate fingerprints reuse per-entry memoized encodings.
    """
    return _tlv(b"T", b"".join(payloads))


def tuple_prefix(encoded: bytes, items: int) -> bytes:
    """The encoding of the first ``items`` items of an encoded tuple.

    ``tuple_prefix(canonical_bytes(t), k) == canonical_bytes(t[:k])``,
    found by stepping over ``k`` item headers — nothing is re-encoded.
    """
    end = _TLV_HEAD
    for _ in range(items):
        end += _TLV_HEAD + int.from_bytes(encoded[end + 1 : end + _TLV_HEAD], "big")
    return _tlv(b"T", encoded[_TLV_HEAD:end])


def _tlv(tag: bytes, payload: bytes) -> bytes:
    return tag + len(payload).to_bytes(8, "big") + payload


def _encode(value: Any) -> bytes:
    if value is None:
        return _tlv(b"N", b"")
    if isinstance(value, bool):  # must precede int: bool is an int subclass
        return _tlv(b"B", b"\x01" if value else b"\x00")
    if isinstance(value, int):
        return _tlv(b"I", str(value).encode("ascii"))
    if isinstance(value, float):
        return _tlv(b"F", value.hex().encode("ascii"))
    if isinstance(value, str):
        return _tlv(b"S", value.encode("utf-8"))
    if isinstance(value, bytes):
        return _tlv(b"Y", value)
    if isinstance(value, (tuple, list)):
        return _tlv(b"T", b"".join(_encode(item) for item in value))
    if isinstance(value, dict):
        items = sorted(
            (_encode(key), _encode(val)) for key, val in value.items()
        )
        return _tlv(b"D", b"".join(key + val for key, val in items))
    if isinstance(value, (set, frozenset)):
        return _tlv(b"E", b"".join(sorted(_encode(item) for item in value)))
    canonical = getattr(value, "canonical", None)
    if canonical is not None and callable(canonical):
        memo = getattr(value, "__dict__", None) if _cache.caching_enabled() else None
        if memo is not None:
            cached = memo.get(_MEMO_ATTR)
            if cached is not None:
                return cached
        # Tag with the class name so structurally-equal values of distinct
        # message types never collide.
        name = type(value).__qualname__.encode("utf-8")
        encoded = _tlv(b"O", _tlv(b"S", name) + _encode(canonical()))
        if memo is not None:
            # Direct __dict__ store: works on frozen dataclasses too.
            memo[_MEMO_ATTR] = encoded
        return encoded
    raise EncodingError(f"cannot canonically encode {type(value).__name__}: {value!r}")
