"""Checkpoint certificates: certified, transferable service state.

Every ``checkpoint_interval`` applied slots each replica digests its
service state (store contents *and* executed-request ids — both are part
of what a recovering replica must reproduce), signs a
:class:`~repro.service.messages.Checkpoint` vote in the service's own
signature domain, and broadcasts it to the replica group. Because at
most f replicas are faulty, **f+1 matching signed digests** mean at
least one *correct* replica attests the digest; packed into a
:class:`~repro.core.certificates.Certificate` they form a
:class:`CheckpointCertificate` — the proof that lets peers truncate
their logs and recovering replicas trust a snapshot they recompute the
digest of (paper Section 3: "a piece of redundant information ...
allows majority tests").
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.core.certificates import Certificate, CertificationAuthority
from repro.crypto.cache import caching_enabled
from repro.crypto.encoding import canonical_bytes, tuple_bytes
from repro.observability.registry import NULL_METRICS
from repro.replication.kvstore import KeyValueStore
from repro.service.messages import Checkpoint


class ExecutedIds:
    """The ids of the requests a replica executed, kept for checkpoints.

    A set to every reader (``in``, ``len``, ``==`` with a plain set),
    iterated in sorted order. Each id is canonically encoded once, when
    it is added, and the encodings are kept in the same sorted order,
    so a checkpoint's :meth:`encoded` is one join and :meth:`ids` one
    tuple copy — no Python loop over the history. An :meth:`add` still
    moves the list tails past its sorted position (a C ``memmove``, O(n)
    pointers). Every id is a ``(client, req_id)`` pair of ints, which
    sort against each other: ``SlotLog._apply_entry`` adds no other, and
    :func:`state_from_wire` checks the ids a peer ships.
    """

    __slots__ = ("_set", "_ids", "_encodings")

    def __init__(self, ids: Iterable[tuple[int, int]] = ()) -> None:
        self._set: set[tuple[int, int]] = set(ids)
        self._ids: list[tuple[int, int]] = sorted(self._set)
        #: ``canonical_bytes(id)`` of each id, in the order of ``_ids``.
        self._encodings: list[bytes] = [canonical_bytes(i) for i in self._ids]

    def add(self, ident: tuple[int, int]) -> None:
        if ident in self._set:
            return
        at = bisect.bisect(self._ids, ident)
        self._ids.insert(at, ident)
        self._encodings.insert(at, canonical_bytes(ident))
        self._set.add(ident)

    def ids(self) -> tuple[tuple[int, int], ...]:
        """The ids, sorted."""
        return tuple(self._ids)

    def encoded(self) -> bytes:
        """``canonical_bytes(self.ids())``, joined from the kept encodings."""
        return tuple_bytes(self._encodings)

    def __contains__(self, ident: object) -> bool:
        return ident in self._set

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._ids)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExecutedIds):
            return self._ids == other._ids
        if isinstance(other, (set, frozenset)):
            return self._set == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"ExecutedIds({self._ids!r})"


def service_digest(store: KeyValueStore, executed: Iterable[tuple[int, int]]) -> str:
    """Canonical digest of the full service state at a checkpoint.

    Covers the store contents (via :meth:`KeyValueStore.digest`) and the
    sorted executed-request ids, so two replicas agree on the digest iff
    a transferred snapshot would make the receiver indistinguishable
    from the sender — including its request deduplication behaviour.
    ``executed`` is an :class:`ExecutedIds` (a replica's own, encoded
    already) or any iterable of request ids, converted here.
    """
    if not isinstance(executed, ExecutedIds):
        executed = ExecutedIds(executed)
    hasher = hashlib.sha256()
    hasher.update(store.digest().encode("ascii"))
    hasher.update(executed.encoded())
    return hasher.hexdigest()


def state_from_wire(
    snapshot: Any, executed: Any, applied: Any
) -> tuple[KeyValueStore, ExecutedIds]:
    """The store and executed ids a state response ships.

    ``ValueError`` unless ``snapshot`` is a tuple of ``(str key, value)``
    pairs with distinct keys, ``executed`` a strictly ascending tuple of
    ``(int, int)`` request ids (a correct responder ships them sorted)
    and ``applied`` an int: a responder can replay a genuine certificate
    beside any payload, and a payload of another shape could not even be
    digested. One pass each, so a frame costs time linear in its size.
    """
    if type(snapshot) is not tuple or not all(
        type(item) is tuple and len(item) == 2 and isinstance(item[0], str)
        for item in snapshot
    ):
        raise ValueError("snapshot is not a tuple of (str key, value) pairs")
    contents = dict(snapshot)
    if len(contents) != len(snapshot):
        raise ValueError("snapshot repeats a key")
    if not isinstance(applied, int):
        raise ValueError("store_applied is not an int")
    if type(executed) is not tuple:
        raise ValueError("executed ids are not a tuple")
    previous: tuple[int, int] | None = None
    for ident in executed:
        if not (
            type(ident) is tuple
            and len(ident) == 2
            and isinstance(ident[0], int)
            and isinstance(ident[1], int)
        ):
            raise ValueError(f"not a (client, req_id) pair of ints: {ident!r}")
        if previous is not None and not previous < ident:
            raise ValueError("executed ids are not strictly ascending")
        previous = ident
    store = KeyValueStore().restore(contents, applied=applied)
    return store, ExecutedIds(executed)


@dataclass(frozen=True, slots=True)
class CheckpointCertificate:
    """f+1 matching signed checkpoint votes for one (count, digest)."""

    count: int
    digest: str
    certificate: Certificate

    @property
    def signers(self) -> frozenset[int]:
        return self.certificate.senders()

    def canonical(self) -> Any:
        return ("checkpoint-cert", self.count, self.digest,
                self.certificate.canonical())


class CheckpointCertCache:
    """Memo of fully verified checkpoint certificates (one per process).

    State-transfer retries and repeated responders re-ship the same
    certificate; once :func:`certificate_valid` has walked its votes the
    verdict is pinned by ``(count, digest, certificate digest)`` — the
    certificate digest covers every vote body and signature — so the
    re-verification is a set lookup. Only accepts are recorded: rejects
    are cheap (first bad vote short-circuits) and an attacker should not
    be able to fill the memo with garbage keys.
    """

    __slots__ = ("max_entries", "hits", "misses", "_seen", "_metrics")

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._seen: dict[tuple[int, str, str], None] = {}
        self._metrics = NULL_METRICS

    def attach_metrics(self, metrics) -> None:
        """Export hit/miss counters through ``metrics`` (first bind wins)."""
        if self._metrics is NULL_METRICS:
            self._metrics = metrics

    def seen(self, key: tuple[int, str, str]) -> bool:
        if key in self._seen:
            self.hits += 1
            self._metrics.inc("ckpt_cert_cache_hits")
            return True
        self.misses += 1
        self._metrics.inc("ckpt_cert_cache_misses")
        return False

    def record(self, key: tuple[int, str, str]) -> None:
        if len(self._seen) >= self.max_entries:
            self._seen.pop(next(iter(self._seen)))
        self._seen[key] = None

    def clear(self) -> None:
        """Forget everything (a restarting replica loses volatile memos)."""
        self._seen.clear()


def certificate_valid(
    cert: CheckpointCertificate,
    authority: CertificationAuthority,
    f: int,
    cache: CheckpointCertCache | None = None,
) -> bool:
    """Full verification of a checkpoint certificate.

    Checks that every entry is a validly signed :class:`Checkpoint` vote
    for exactly this ``(count, digest)`` pair and that at least ``f + 1``
    *distinct* replicas signed — the majority test guaranteeing a correct
    attester. ``authority`` supplies the service signature domain (any
    replica's authority verifies; signing capability is not used).

    ``cache`` (if given) must be private to one verifying process and one
    authority domain; see :class:`CheckpointCertCache`.
    """
    key: tuple[int, str, str] | None = None
    if cache is not None and caching_enabled():
        try:
            key = (cert.count, cert.digest, cert.certificate.digest().hex)
        except Exception:
            return False  # malformed enough that even hashing fails
        if cache.seen(key):
            return True
    signers: set[int] = set()
    try:
        for entry in cert.certificate:
            body = entry.body
            if not isinstance(body, Checkpoint):
                return False
            if body.count != cert.count or body.digest != cert.digest:
                return False
            if not authority.signature_valid(entry):
                return False
            signers.add(body.sender)
    except Exception:
        # Structurally malformed entries (a Byzantine responder can ship
        # anything here) are a rejection, never a crash.
        return False
    valid = len(signers) >= f + 1
    if valid and key is not None:
        cache.record(key)
    return valid
