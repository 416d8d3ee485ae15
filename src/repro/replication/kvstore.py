"""A replicated key-value store: the canonical state machine on the log.

Commands are deterministic (``set`` / ``del``); because every correct
replica commits the same command sequence (the replicated-log guarantee),
every correct replica materialises the same store — byzantine replicas
included in the membership notwithstanding.

For checkpointing (``repro.service``) the store also exposes a *canonical
digest* — a collision-resistant hash of its contents that is a pure
function of the applied command sequence — and an exact
``snapshot()``/``restore()`` pair, so a certified snapshot installed on a
recovering replica reproduces the digest bit for bit.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Any, Iterable

from repro.crypto.encoding import canonical_bytes
from repro.errors import EncodingError


@dataclass(frozen=True, slots=True)
class Command:
    """One deterministic store operation."""

    op: str  # "set" | "del"
    key: str
    value: Any = None

    def canonical(self) -> Any:
        return (self.op, self.key, self.value)


def _entry_bytes(key: str, value: Any) -> bytes:
    """One entry's part of :meth:`KeyValueStore.digest`: the canonical
    key bytes, then the value's (its ``repr``'s outside the vocabulary)."""
    try:
        encoded = canonical_bytes(value)
    except EncodingError:
        encoded = canonical_bytes(repr(value))
    return canonical_bytes(key) + encoded


class KeyValueStore:
    """Deterministic state machine over :class:`Command` sequences.

    Beside the contents it keeps the keys sorted and each entry's
    canonical bytes in the same order, encoded when the entry is written
    (or once by :meth:`restore`), so a checkpoint's :meth:`digest` is one
    join and one SHA-256 — no Python loop over the keys.
    """

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        self._keys: list[str] = []
        #: ``_entry_bytes`` of each entry, in the order of ``_keys``.
        self._encodings: list[bytes] = []
        self.applied = 0

    def apply(self, command: Any) -> None:
        """Apply one command; unknown shapes are ignored deterministically.

        Byzantine replicas can propose garbage commands, and a client can
        name a key that is not a ``str``; determinism (and hence replica
        convergence) only requires every correct replica to handle the
        garbage identically — ignoring it is the simplest uniform rule.
        """
        self.applied += 1
        if not isinstance(command, Command) or not isinstance(command.key, str):
            return  # a key of another type would not sort among the keys
        if command.op == "set":
            self._put(command.key, command.value)
        elif command.op == "del" and command.key in self._data:
            at = bisect.bisect_left(self._keys, command.key)
            del self._keys[at], self._encodings[at], self._data[command.key]

    def _put(self, key: str, value: Any) -> None:
        """Write one entry, outside the command count."""
        at = bisect.bisect_left(self._keys, key)
        if key in self._data:
            self._encodings[at] = _entry_bytes(key, value)
        else:
            self._keys.insert(at, key)
            self._encodings.insert(at, _entry_bytes(key, value))
        self._data[key] = value

    def apply_all(self, commands: Iterable[Any]) -> "KeyValueStore":
        for command in commands:
            self.apply(command)
        return self

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict copy of the contents (the transferable state)."""
        return dict(self._data)

    def restore(self, snapshot: dict[str, Any], applied: int = 0) -> "KeyValueStore":
        """Replace the contents with ``snapshot`` (inverse of :meth:`snapshot`).

        ``applied`` resets the command counter to the value the snapshot
        was taken at, so a restored store is indistinguishable — digest
        included — from one that applied the original sequence itself.
        """
        self._data = dict(snapshot)
        self._keys = sorted(self._data)
        self._encodings = [_entry_bytes(k, self._data[k]) for k in self._keys]
        self.applied = applied
        return self

    def digest(self) -> str:
        """Canonical content hash (hex): equal iff the contents are equal.

        The hash covers the sorted ``(key, value)`` pairs in the canonical
        byte encoding, so it is independent of insertion order and of any
        ignored (non-:class:`Command`) inputs. Values outside the canonical
        vocabulary fall back to their ``repr`` — still deterministic across
        replicas because a committed value is the *same object graph* on
        every correct replica. Each entry was encoded when written.
        """
        return hashlib.sha256(b"".join(self._encodings)).hexdigest()

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def __len__(self) -> int:
        return len(self._data)


def materialise(command_log: Iterable[Any]) -> dict[str, Any]:
    """The store a replica reaches after applying ``command_log``."""
    return KeyValueStore().apply_all(command_log).snapshot()
