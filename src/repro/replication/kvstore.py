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


class KeyValueStore:
    """Deterministic state machine over :class:`Command` sequences."""

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
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
            self._data[command.key] = command.value
        elif command.op == "del":
            self._data.pop(command.key, None)

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
        self.applied = applied
        return self

    def digest(self) -> str:
        """Canonical content hash (hex): equal iff the contents are equal.

        The hash covers the sorted ``(key, value)`` pairs in the canonical
        byte encoding, so it is independent of insertion order and of any
        ignored (non-:class:`Command`) inputs. Values outside the canonical
        vocabulary fall back to their ``repr`` — still deterministic across
        replicas because a committed value is the *same object graph* on
        every correct replica.
        """
        hasher = hashlib.sha256()
        for key in sorted(self._data):
            hasher.update(canonical_bytes(key))
            try:
                hasher.update(canonical_bytes(self._data[key]))
            except EncodingError:
                hasher.update(canonical_bytes(repr(self._data[key])))
        return hasher.hexdigest()

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def __len__(self) -> int:
        return len(self._data)


def materialise(command_log: Iterable[Any]) -> dict[str, Any]:
    """The store a replica reaches after applying ``command_log``."""
    return KeyValueStore().apply_all(command_log).snapshot()
