"""The slot log: the service's request-ordering rules, with no I/O.

Every replica holds every client request (docs/SERVICE.md, "Batching").
:class:`SlotLog` decides what a replica does with them: which seat
proposes each request, when a slot opens and which held requests it
covers, what a decided slot gives back, and the in-order, exactly-once
apply of decided vectors to the key-value store.

It takes events — a request from a sender, a slot decided with its
vector, the batch timer, a peer's traffic for a slot not open here,
install and truncate at a count, reset — and answers each with a list
of *intents*: plain data the replica carries out in the order given
(open a slot with a proposal, reply to a client, arm the batch timer,
a checkpoint is due, a slot was committed). An event that yields
nothing returns an empty tuple.

It imports neither the simulator nor an event loop nor a transport, so
the same rules run under the simulator, the loopback twin, TCP and bare
unit tests. :class:`~repro.service.replica.ServiceReplicaProcess`
drives it and keeps everything that does I/O: the slot engines, timers,
checkpoint votes and state transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.messages.consensus import NULL
from repro.replication.kvstore import Command, KeyValueStore
from repro.service.checkpoint import ExecutedIds, service_digest
from repro.service.config import ServiceConfig
from repro.service.messages import ClientRequest

#: What a replica proposes for a slot in which it proposes no request.
NOOP = "<noop>"


@dataclass(frozen=True, slots=True)
class Open:
    """Open ``slot`` here: start its consensus engine on ``proposal``."""

    slot: int
    proposal: Any


@dataclass(frozen=True, slots=True)
class Reply:
    """Acknowledge ``(client, req_id)`` as committed in ``slot`` (``-1``:
    committed earlier, slot unknown after compaction)."""

    client: int
    req_id: int
    slot: int


@dataclass(frozen=True, slots=True)
class ArmBatchTimer:
    """Arm the replica's batch timer (``batch_delay``)."""


@dataclass(frozen=True, slots=True)
class CheckpointDue:
    """``count`` slots are applied: vote on ``state`` =
    ``(snapshot items, executed ids, store.applied, digest)``."""

    count: int
    state: tuple


@dataclass(frozen=True, slots=True)
class Commit:
    """``slot`` was applied with ``vector``; ``commands`` executed in it."""

    slot: int
    vector: tuple
    commands: int


Intents = Sequence[Any]

_ARM = ArmBatchTimer()


class SlotLog:
    """One replica's held requests, decided buffer and applied state.

    Args:
        config: the deployment (replica count, batching, window,
            checkpoint cadence).
        pid: this replica's seat.
        metrics: the replica's ``service`` metric scope.
    """

    def __init__(self, config: ServiceConfig, pid: int, metrics: Any) -> None:
        self.pid = pid
        self.n = config.n_replicas
        self.batch_size = config.batch_size
        self.window = config.window
        self.checkpoint_interval = config.checkpoint_interval
        self._metrics = metrics
        self._out: list[Any] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything: an empty store, nothing held or decided."""
        self.store = KeyValueStore()
        self.executed = ExecutedIds()
        #: Compacted committed log: (slot, proposer, entry).
        self.log: list[tuple[int, int, Any]] = []
        #: Held requests that no open slot covers yet, oldest first.
        self.pending: dict[tuple[int, int], ClientRequest] = {}
        #: Likewise, but passed over: a slot covered them and their seat
        #: proposed a non-NULL entry without them. Later slots cover them
        #: and their seat's timer opens one for them, but they count
        #: toward no size trigger.
        self._passed: dict[tuple[int, int], ClientRequest] = {}
        #: ident -> how many times this replica received the request,
        #: minus one: the ``attempt`` of :meth:`_proposer`'s rotation.
        #: An entry lives exactly as long as the request is held.
        self._attempts: dict[tuple[int, int], int] = {}
        #: slot -> (request, seat) for each held request the slot covered
        #: when it opened here; what it leaves unexecuted is released.
        self._covered: dict[int, tuple[tuple[ClientRequest, int], ...]] = {}
        #: Replicas whose entry was NULL in the last slot applied here.
        self._silent: frozenset[int] = frozenset()
        self._batch_timer = False
        #: Slots opened here (each has an engine at the replica).
        self._opened: set[int] = set()
        #: This replica's proposal per opened slot.
        self._proposed: dict[int, Any] = {}
        self.decided: set[int] = set()
        #: slot -> decided vector waiting for every earlier slot.
        self.buffered: dict[int, tuple] = {}
        self.next_apply = 0
        self._next_open = 0

    @property
    def committed_commands(self) -> int:
        """Client commands executed exactly once here."""
        return len(self.executed)

    def open_slots(self) -> int:
        """Slots opened here and not decided yet."""
        return sum(1 for slot in self._opened if slot not in self.decided)

    # -- events ---------------------------------------------------------------

    def request(self, src: int, request: ClientRequest) -> Intents:
        """``request`` arrived from ``src``."""
        # Only the client itself submits its request (the channel is
        # authenticated): a copy relayed by anyone else, a replica in
        # particular, would move the request's attempt count — and so
        # its proposer — on this replica alone.
        if not (
            src == request.client
            and src >= self.n
            and isinstance(request.client, int)
            and isinstance(request.command, Command)
            and isinstance(request.command.key, str)
            and isinstance(request.req_id, int)
        ):
            self._metrics.inc("requests_rejected")
            return ()
        ident = request.ident
        if ident in self.executed:
            # The client resubmitted a command that already committed:
            # every reply evidently got lost; repeat ours.
            return [Reply(request.client, request.req_id, -1)]
        attempts = self._attempts.get(ident)
        if attempts is not None:
            # Held already: a resubmission moves the request one seat on
            # along its rotation.
            self._attempts[ident] = attempts + 1
            return ()
        self._attempts[ident] = 0
        self.pending[ident] = request
        self._metrics.inc("requests_received")
        self._drain(force=False)
        return self._take()

    def decide(self, slot: int, vector: tuple) -> Intents:
        """``slot`` decided ``vector`` here: apply what is now in order,
        then open what the triggers allow. A repeat is a no-op."""
        if slot in self.decided or slot < self.next_apply:
            return ()
        self.learn(slot, vector)
        if self._proposed.get(slot, NOOP) != NOOP and vector[self.pid] == NULL:
            # Our batch lost the INIT race of this slot; at-least-once:
            # the slot's release hands it to the next seat.
            self._metrics.inc("batches_lost")
        self._apply(reply=True)
        self._drain(force=False)
        return self._take()

    def learn(self, slot: int, vector: tuple) -> None:
        """Buffer a decision without applying it (a transfer replays a
        verified suffix, then applies it in one :meth:`apply`)."""
        self.decided.add(slot)
        self.buffered[slot] = vector

    def apply(self, reply: bool) -> Intents:
        """Apply the buffered decisions that are in order."""
        self._apply(reply)
        return self._take()

    def drain(self) -> Intents:
        """Open the slots the window and the size trigger allow."""
        self._drain(force=False)
        return self._take()

    def batch_timer(self) -> Intents:
        """The batch timer fired."""
        self._batch_timer = False
        self._drain(force=True)
        return self._take()

    def join(self, slot: int) -> Intents:
        """A peer's traffic names ``slot``, not open here: open it with
        this replica's share, unless it lies past the horizon."""
        if slot >= self._horizon():
            self._metrics.inc("slots_beyond_horizon")
            return ()
        return [self._open(slot)]

    def install(self, count: int, store: KeyValueStore, executed: ExecutedIds) -> None:
        """Adopt a certified snapshot of the first ``count`` slots; the
        caller then truncates at ``count``."""
        self.store = store
        self.executed = executed
        self.next_apply = count

    def truncate(self, count: int) -> None:
        """Log compaction: drop everything about slots below ``count``."""
        self._opened = {slot for slot in self._opened if slot >= count}
        self._proposed = {s: p for s, p in self._proposed.items() if s >= count}
        for slot in [s for s in self._covered if s < count]:
            self._release(slot)  # installed by a transfer, never applied here
        self.decided = {slot for slot in self.decided if slot >= count}
        self.buffered = {s: v for s, v in self.buffered.items() if s >= count}
        before = len(self.log)
        self.log = [entry for entry in self.log if entry[0] >= count]
        self._metrics.inc("log_entries_truncated", before - len(self.log))
        self._next_open = max(self._next_open, count)

    # -- the rules ----------------------------------------------------------------

    def _take(self) -> Intents:
        out = self._out
        if not out:
            return ()
        self._out = []
        return out

    def _horizon(self) -> int:
        """Highest slot this replica will open.

        Bounds resource use against a Byzantine peer spraying envelopes
        for far-future slots; generous enough that correct pipelining
        (window ahead of the applied frontier, plus transfer lag) never
        hits it.
        """
        return self.next_apply + 4 * (self.window + self.checkpoint_interval) + 8

    def _proposer(self, request: ClientRequest) -> int:
        """The one replica that proposes ``request``.

        The first seat of the rotation ``(client + req_id + attempt + k)
        mod n``, k = 0, 1, …, whose entry was not NULL in the last slot
        applied here — so a late or crashed replica's share moves to its
        successor at the next decision, not after the client's
        ``request_timeout``. Every correct replica applies the same
        vectors and counts only submissions that came from the client
        itself, so from a client that sends every submission to every
        replica they count the same attempts and agree on the seat; no
        replica can move the seat of another party's request.
        """
        n = self.n
        start = request.client + request.req_id + self._attempts[request.ident]
        for k in range(n):
            seat = (start + k) % n
            if seat not in self._silent:
                return seat
        return start % n

    def _drain(self, force: bool) -> None:
        """Open new slots while the pipeline window and triggers allow.

        The size trigger fires while ``batch_size`` held requests wait
        for a slot — every one counts, whoever proposes it, unless it was
        passed over. ``force`` (this replica's batch timer expired) opens
        one slot if this replica proposes one of the waiting requests.
        Whichever replica opens a slot, every other one joins it with its
        own share.
        """
        if force:
            force = any(
                self._proposer(request) == self.pid
                for held in (self.pending, self._passed)
                for request in held.values()
            )
        while (
            (self.pending or self._passed)
            and self.open_slots() < self.window
            and (force or len(self.pending) >= self.batch_size)
        ):
            if self._next_open >= self._horizon():
                # Nothing mutates between iterations of this loop, so
                # retrying the same slot can only spin; the next delivery
                # or timer will re-drain once the frontier moves.
                self._metrics.inc("slots_beyond_horizon")
                break
            self._out.append(self._open(self._next_open))
            force = False
        # A holder's timer runs until what it holds is applied, so each
        # waiting request meets its proposer's timer within batch_delay.
        if not self._batch_timer and (self.pending or self._passed or self._covered):
            self._batch_timer = True
            self._out.append(_ARM)

    def _open(self, slot: int) -> Open:
        proposal = self._proposal_for(slot)
        self._opened.add(slot)
        self._next_open = max(self._next_open, slot + 1)
        return Open(slot, proposal)

    def _proposal_for(self, slot: int) -> Any:
        """This replica's entry for ``slot``.

        The slot covers each proposer's first ``batch_size`` waiting
        requests, passed-over ones first; this replica proposes its own
        share of them.
        """
        size = self.batch_size
        room = size * self.n
        taken: dict[int, int] = {}
        covered: list[tuple[ClientRequest, int]] = []
        batch: list[ClientRequest] = []
        waiting = [
            (held, ident, request)
            for held in (self._passed, self.pending)
            for ident, request in held.items()
        ]
        for held, ident, request in waiting:
            if ident in self.executed:  # installed by a state transfer
                del held[ident]
                self._attempts.pop(ident, None)
                continue
            seat = self._proposer(request)
            if taken.get(seat, 0) == size:
                continue
            taken[seat] = taken.get(seat, 0) + 1
            del held[ident]
            covered.append((request, seat))
            if seat == self.pid:
                batch.append(request)
            if len(covered) == room:
                break
        if covered:
            self._covered[slot] = tuple(covered)
        proposal = tuple(batch) if batch else NOOP
        self._proposed[slot] = proposal
        if batch:
            self._metrics.inc("batches_proposed")
            self._metrics.observe("batch_occupancy", len(batch))
        return proposal

    def _release(self, slot: int) -> None:
        """Give back what ``slot`` covered and did not commit.

        A request whose seat has moved on — its proposer's entry was
        NULL — waits again ahead of later arrivals. One whose seat still
        stands was passed over by a proposer that did propose (one that
        had not received it yet, or withholds it): it waits in
        ``_passed``, where it counts toward no size trigger, so a seat
        that keeps passing requests over cannot make every replica
        reopen slot after slot for them; the client's resubmission
        moves such a request to the next seat.
        """
        back = {}
        for request, seat in self._covered.pop(slot, ()):
            ident = request.ident
            if ident not in self._attempts:
                continue  # committed
            if self._proposer(request) == seat:
                self._passed[ident] = request
            else:
                back[ident] = request
        if back:
            back.update(self.pending)
            self.pending = back

    def _apply(self, reply: bool) -> None:
        """Apply buffered decisions in strict slot order.

        A slot decided out of order (slot 2 before slot 1) waits until
        every earlier slot has decided, so the log and the store are
        identical across replicas whatever the decision schedule. Every
        ``checkpoint_interval`` applied slots a checkpoint is due.
        """
        while self.next_apply in self.buffered:
            slot = self.next_apply
            vector = self.buffered.pop(slot)
            committed = 0
            silent = []
            for proposer, batch in enumerate(vector):
                if batch == NULL:
                    silent.append(proposer)
                    continue
                if batch == NOOP:
                    continue
                entries = batch if isinstance(batch, tuple) else (batch,)
                for entry in entries:
                    committed += self._apply_entry(slot, proposer, entry, reply)
            self._silent = frozenset(silent)
            self._release(slot)
            self._out.append(Commit(slot, vector, committed))
            self._metrics.inc("slots_applied")
            self.next_apply += 1
            if self.next_apply % self.checkpoint_interval == 0:
                self._out.append(self._checkpoint(self.next_apply))

    def _apply_entry(self, slot: int, proposer: int, entry: Any, reply: bool) -> int:
        if (
            isinstance(entry, ClientRequest)
            and isinstance(entry.client, int)
            and isinstance(entry.req_id, int)
        ):
            ident = entry.ident
            if ident in self.executed:
                return 0  # committed in an earlier slot or batch
            self.executed.add(ident)
            self.store.apply(entry.command)
            self.log.append((slot, proposer, entry))
            self.pending.pop(ident, None)
            self._passed.pop(ident, None)
            self._attempts.pop(ident, None)
            self._metrics.inc("commands_committed")
            if reply:
                self._out.append(Reply(entry.client, entry.req_id, slot))
            return 1
        # A Byzantine proposer smuggled a non-request — or a request
        # whose id is not a pair of ints, which would not sort among the
        # executed ids — into the vector: apply it deterministically
        # (the store ignores unknown shapes) so every correct replica
        # stays in lockstep.
        self.store.apply(entry)
        self.log.append((slot, proposer, entry))
        self._metrics.inc("foreign_entries")
        return 0

    def _checkpoint(self, count: int) -> CheckpointDue:
        digest = service_digest(self.store, self.executed)
        snapshot = tuple(
            sorted(
                self.store.snapshot().items(),
                key=lambda kv: (type(kv[0]).__name__, repr(kv[0])),
            )
        )
        return CheckpointDue(
            count, (snapshot, self.executed.ids(), self.store.applied, digest)
        )
