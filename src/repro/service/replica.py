"""The service replica: batching, pipelining, checkpoints, state transfer.

A :class:`ServiceReplicaProcess` is the long-lived counterpart of
:class:`~repro.replication.log.ReplicatedLogProcess`: the same
slot-per-instance Vector Consensus core (one transformed Figure-3 engine
per slot, slot-separated signature domains, in-order apply), extended
with everything a running service needs:

* **batching** — every replica holds every client request; each request
  has one proposer, rotated past the replicas whose INIT the last slot
  missed, and a slot opens once ``batch_size`` held requests wait
  (``batch_delay`` is the ceiling);
* **pipelining** — up to ``window`` slots run their consensus instances
  concurrently instead of strictly one after the other;
* **checkpointing** — every ``checkpoint_interval`` applied slots the
  replica digests its state, exchanges signed votes, and an f+1 quorum
  of matching digests forms a :class:`~repro.service.checkpoint.
  CheckpointCertificate` that lets it truncate the log and the dead slot
  engines;
* **state transfer** — a restarted (or detectably lagging) replica
  fetches a certified snapshot plus the decided-vector suffix from a
  peer, re-verifies certificate and digest locally, installs it and
  rejoins the pipeline.

The replica group shares its world with client processes; the
:class:`_ReplicaEnvView` facade keeps the consensus engines' horizon to
the replica group alone (``n`` = replica count, not world size).
"""

from __future__ import annotations

from typing import Any

from repro.core.certificates import (
    Certificate,
    CertificationAuthority,
    SignedMessage,
)
from repro.core.modules import ModuleConfig
from repro.core.specs import SystemParameters
from repro.crypto.cache import SignatureCache
from repro.crypto.keys import KeyAuthority
from repro.crypto.signatures import SignatureScheme
from repro.detectors.diamond_m import (
    AdaptiveMutenessDetector,
    MutenessDetector,
)
from repro.messages.consensus import NULL, VCurrent, VDecide
from repro.observability.registry import MODULE_SERVICE, MODULE_SIGNATURE
from repro.replication.kvstore import Command, KeyValueStore
from repro.replication.log import (
    NOOP,
    EngineFactory,
    SlotEnv,
    SlotEnvelope,
    default_engine,
)
from repro.service.checkpoint import (
    CheckpointCertCache,
    CheckpointCertificate,
    certificate_valid,
    service_digest,
)
from repro.service.config import ServiceConfig
from repro.service.messages import (
    Checkpoint,
    ClientReply,
    ClientRequest,
    StateRequest,
    StateResponse,
)
from repro.sim.process import Process, ProcessEnv


class _ReplicaEnvView:
    """The engines' window onto the world, restricted to the replicas.

    Clients share the simulated world but take no part in consensus,
    checkpoint quorums or muteness monitoring, so everything an engine
    derives from ``n`` (broadcast fan-out, quorum sizes, coordinator
    rotation, detector targets) must see the replica count, not the
    world size. The facade also gates sends while the replica is down
    (a down replica is silent, not crashed) and tracks timer names so
    slot timers can be cancelled wholesale at truncation and restart.
    """

    __slots__ = ("_process", "_env", "_n", "timer_names")

    def __init__(
        self, process: "ServiceReplicaProcess", env: ProcessEnv, n_replicas: int
    ) -> None:
        self._process = process
        self._env = env
        self._n = n_replicas
        self.timer_names: set[str] = set()

    @property
    def pid(self) -> int:
        return self._env.pid

    @property
    def n(self) -> int:
        return self._n

    @property
    def now(self) -> float:
        return self._env.now

    @property
    def crashed(self) -> bool:
        return self._env.crashed

    @property
    def scheduler(self):
        return self._env.scheduler

    @property
    def trace(self):
        return self._env.trace

    @property
    def rng(self):
        return self._env.rng

    @property
    def metrics(self):
        return self._env.metrics

    def send(self, dst: int, payload: Any) -> None:
        if self._process.down:
            return
        self._env.send(dst, payload)

    def set_timer(self, owner, name: str, delay: float) -> None:
        self.timer_names.add(name)
        self._env.set_timer(owner, name, delay)

    def cancel_timer(self, name: str) -> None:
        self.timer_names.discard(name)
        self._env.cancel_timer(name)


class ServiceReplicaProcess(Process):
    """One replica of the long-lived replicated key-value service."""

    def __init__(
        self,
        config: ServiceConfig,
        engine_factory: EngineFactory = default_engine,
        module_config: ModuleConfig | None = None,
    ) -> None:
        super().__init__()
        self.config = config
        self.params: SystemParameters = config.params()
        self.engine_factory = engine_factory
        self.module_config = (
            module_config if module_config is not None else ModuleConfig.full()
        )
        # -- service state machine -----------------------------------------
        self.store = KeyValueStore()
        self.executed: set[tuple[int, int]] = set()
        #: Compacted committed log: (slot, proposer, entry).
        self.log: list[tuple[int, int, Any]] = []
        # -- batching --------------------------------------------------------
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
        # -- slot pipeline ---------------------------------------------------
        self.engines: dict[int, Any] = {}
        self._decided: set[int] = set()
        self._pending_apply: dict[int, tuple] = {}
        #: Applied vectors retained since the stable checkpoint — the
        #: suffix served to catching-up peers.
        self._vector_history: dict[int, tuple] = {}
        #: slot -> the signed DECIDE justifying the slot's vector (the
        #: engine's ``decision_justification``, or the verified one a
        #: transfer installed) — shipped alongside the suffix so peers
        #: can re-check each slot against its own signature domain.
        self._vector_justifications: dict[int, SignedMessage] = {}
        self._proposed: dict[int, Any] = {}
        self.next_apply = 0
        self.base_slot = 0
        self._next_open = 0
        self.faulty_union: set[int] = set()
        # -- checkpoints -----------------------------------------------------
        #: count -> (snapshot items, executed tuple, store.applied, digest).
        self._local_snapshots: dict[int, tuple] = {}
        #: count -> digest -> signer pid -> signed vote.
        self._ckpt_votes: dict[int, dict[str, dict[int, SignedMessage]]] = {}
        self.stable: CheckpointCertificate | None = None
        self._stable_snapshot: tuple | None = None
        #: Every (count, digest) this replica attested, never truncated
        #: (the campaign oracles' convergence surface).
        self.checkpoint_history: list[tuple[int, str]] = []
        #: Counts this replica ever held a certificate for (also kept
        #: across restarts — an oracle surface, not protocol state).
        self.certified_counts: set[int] = set()
        self.checkpoint_mismatches = 0
        # -- recovery --------------------------------------------------------
        self.down = False
        self.downs = 0
        self.restarts = 0
        self._transferring = False
        self._transfer_reason = ""
        self._replaying = False
        #: Suffix entries refused during state transfer (forged vector,
        #: missing/invalid justification) — an oracle surface.
        self.suffix_rejections = 0
        #: Applied frontier at the last stall-probe tick.
        self._probe_apply = 0
        #: (virtual time, installed count, applied frontier) per transfer.
        self.state_transfers_completed: list[tuple[float, int, int]] = []
        # -- verification memos (volatile; cleared on restart) ---------------
        #: One signature-verdict cache for every domain this replica
        #: verifies in — slot engines, checkpoint votes, transfer
        #: re-checks. Keys carry the domain, so sharing is sound.
        self._sig_cache = SignatureCache()
        #: Verdicts in the domains of slots below the stable checkpoint
        #: (the stale-envelope ingress check), kept apart and small: a
        #: truncated domain never refills the shared cache, and a
        #: replayed stale envelope still costs no MAC.
        self._stale_sig_cache = SignatureCache(max_entries=1 << 10)
        #: Fully-verified checkpoint certificates (state transfer).
        self._ckpt_cert_cache = CheckpointCertCache()
        #: slot -> verifying authority for suffix re-checks; rebuilding
        #: one per entry per response dominated transfer cost.
        self._transfer_authorities: dict[int, CertificationAuthority] = {}
        #: Senders already declared by the stale-envelope ingress check
        #: (one declaration event per culprit, like the engines').
        self._stale_culprits: set[int] = set()
        #: Adversary-zoo family (d) hook (docs/ADVERSARIES.md): when the
        #: campaign installs a :class:`~repro.faults.corruption.StorageFault`
        #: here, every state response this replica serves passes through
        #: it — modelling stuck bits in the at-rest log/checkpoint
        #: storage. ``None`` (the default) is a no-op.
        self.storage_fault: Any = None

    # -- wiring -------------------------------------------------------------

    def bind(self, env: ProcessEnv) -> None:
        super().bind(env)
        self._view = _ReplicaEnvView(self, env, self.config.n_replicas)
        self._metrics = env.metrics.scope(MODULE_SERVICE, env.pid)
        self._sig_metrics = env.metrics.scope(MODULE_SIGNATURE, env.pid)
        self._sig_cache.attach_metrics(self._sig_metrics)
        self._stale_sig_cache.attach_metrics(self._sig_metrics)
        self._ckpt_cert_cache.attach_metrics(self._metrics)
        # The checkpoint signature domain is separated from every slot
        # domain (slots use seed*1_000_003 + slot for slot >= 0).
        keys = KeyAuthority(
            self.config.n_replicas, seed=self.config.seed * 1_000_003 - 1
        )
        self._ckpt_authority = CertificationAuthority(
            SignatureScheme(keys, cache=self._sig_cache), keys.signer_for(env.pid)
        )

    def send(self, dst: int, payload: Any) -> None:
        if self.down:
            return
        super().send(dst, payload)

    # -- public surface (oracles, reports) ----------------------------------

    @property
    def committed_commands(self) -> int:
        """Client commands executed exactly once on this replica."""
        return len(self.executed)

    @property
    def applied_slots(self) -> int:
        return self.next_apply

    # -- message routing ----------------------------------------------------

    def on_start(self) -> None:
        if self.config.stall_probe > 0:
            self.set_timer("stall-probe", self.config.stall_probe)

    def on_message(self, src: int, payload: Any) -> None:
        if self.down:
            return
        if isinstance(payload, SlotEnvelope):
            self._on_envelope(src, payload)
        elif isinstance(payload, ClientRequest):
            self._on_request(src, payload)
        elif isinstance(payload, SignedMessage) and isinstance(
            payload.body, Checkpoint
        ):
            self._on_checkpoint_vote(payload)
        elif isinstance(payload, StateRequest):
            self._on_state_request(src, payload)
        elif isinstance(payload, StateResponse):
            self._on_state_response(payload)

    def on_timer(self, name: str) -> None:
        if self.down:
            return
        if name == "batch":
            self._batch_timer = False
            self._drain_batches(force=True)
        elif name == "state-retry" and self._transferring:
            self._broadcast_state_request()
            self.set_timer("state-retry", self.config.transfer_retry)
        elif name == "stall-probe":
            self._stall_probe()

    # -- client requests and batching ----------------------------------------

    def _on_request(self, src: int, request: ClientRequest) -> None:
        # Only the client itself submits its request (the channel is
        # authenticated): a copy relayed by anyone else, a replica in
        # particular, would move the request's attempt count — and so
        # its proposer — on this replica alone.
        if not (
            src == request.client
            and src >= self.config.n_replicas
            and isinstance(request.client, int)
            and isinstance(request.command, Command)
            and isinstance(request.req_id, int)
        ):
            self._metrics.inc("requests_rejected")
            return
        ident = request.ident
        if ident in self.executed:
            # The client resubmitted a command that already committed:
            # every reply evidently got lost; repeat ours. The slot is
            # unknown after compaction, hence the -1 sentinel.
            self.send(
                request.client,
                ClientReply(self.pid, request.client, request.req_id, -1),
            )
            return
        attempts = self._attempts.get(ident)
        if attempts is not None:
            # Held already: a resubmission moves the request one seat on
            # along its rotation.
            self._attempts[ident] = attempts + 1
            return
        self._attempts[ident] = 0
        self.pending[ident] = request
        self._metrics.inc("requests_received")
        self._drain_batches(force=False)

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
        n = self.config.n_replicas
        start = request.client + request.req_id + self._attempts[request.ident]
        for k in range(n):
            seat = (start + k) % n
            if seat not in self._silent:
                return seat
        return start % n

    def _open_slots(self) -> int:
        return sum(1 for slot in self.engines if slot not in self._decided)

    def _drain_batches(self, force: bool) -> None:
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
            and self._open_slots() < self.config.window
            and (force or len(self.pending) >= self.config.batch_size)
        ):
            if self._ensure_engine(self._next_open) is None:
                # The pipeline horizon refused the slot. Nothing mutates
                # between iterations of this loop, so retrying the same
                # slot can only spin; the next delivery or timer will
                # re-drain once the frontier moves.
                break
            force = False
        # A holder's timer runs until what it holds is applied, so each
        # waiting request meets its proposer's timer within batch_delay.
        if not self._batch_timer and (self.pending or self._passed or self._covered):
            self._batch_timer = True
            self.set_timer("batch", self.config.batch_delay)

    def _proposal_for(self, slot: int) -> Any:
        """This replica's entry for ``slot``.

        The slot covers each proposer's first ``batch_size`` waiting
        requests, passed-over ones first; this replica proposes its own
        share of them.
        """
        size = self.config.batch_size
        room = size * self.config.n_replicas
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

    # -- the slot pipeline ---------------------------------------------------

    def _horizon(self) -> int:
        """Highest slot this replica will instantiate an engine for.

        Bounds resource use against a Byzantine peer spraying envelopes
        for far-future slots; generous enough that correct pipelining
        (window ahead of the applied frontier, plus transfer lag) never
        hits it.
        """
        return (
            self.next_apply
            + 4 * (self.config.window + self.config.checkpoint_interval)
            + 8
        )

    def _slot_seed(self, slot: int) -> int:
        """Domain separation exactly as in the replicated log: one key
        authority per slot, derived by a fixed affine map of the seed."""
        return self.config.seed * 1_000_003 + slot

    def _slot_domain(self, slot: int) -> tuple[int, int]:
        """The ``KeyAuthority.domain`` of ``slot``'s authority: what its
        signature verdicts are filed under."""
        return (self.config.n_replicas, self._slot_seed(slot))

    def _ensure_engine(self, slot: int):
        if slot < self.base_slot:
            return None
        engine = self.engines.get(slot)
        if engine is not None:
            return engine
        if slot >= self._horizon():
            self._metrics.inc("slots_beyond_horizon")
            return None
        keys = KeyAuthority(self.config.n_replicas, seed=self._slot_seed(slot))
        authority = CertificationAuthority(
            SignatureScheme(keys, cache=self._sig_cache),
            keys.signer_for(self.pid),
        )
        if self.config.muteness_detector == "adaptive":
            detector: MutenessDetector = AdaptiveMutenessDetector(
                initial_timeout=self.config.muteness_timeout
            )
        else:
            detector = MutenessDetector(
                initial_timeout=self.config.muteness_timeout
            )
        engine = self.engine_factory(
            self.pid,
            self._proposal_for(slot),
            self.params,
            authority,
            detector,
            self.module_config,
        )
        engine.bind(SlotEnv(self._view, slot))  # type: ignore[arg-type]
        self.engines[slot] = engine
        self._next_open = max(self._next_open, slot + 1)
        engine.on_start()
        return engine

    def _slot_authority(self, slot: int) -> CertificationAuthority:
        """A verifying authority for ``slot``'s signature domain (cached).

        Shared by suffix re-checks during state transfer and the
        stale-envelope ingress check; the bounded cache keeps repeat
        verifications of one slot's domain from re-deriving keys. A slot
        below the stable checkpoint files its verdicts in the small
        stale cache, not in the shared one its truncation emptied.
        """
        authority = self._transfer_authorities.get(slot)
        if authority is None:
            keys = KeyAuthority(self.config.n_replicas, seed=self._slot_seed(slot))
            cache = (
                self._sig_cache if slot >= self.base_slot else self._stale_sig_cache
            )
            authority = CertificationAuthority(
                SignatureScheme(keys, cache=cache),
                keys.signer_for(self.pid),
            )
            if len(self._transfer_authorities) >= 256:
                self._transfer_authorities.pop(
                    next(iter(self._transfer_authorities))
                )
            self._transfer_authorities[slot] = authority
        return authority

    def _stale_ingress(self, src: int, envelope: SlotEnvelope) -> None:
        """The signature module's check on an envelope the protocol no
        longer needs.

        Figure 1 puts the signature module upstream of the protocol
        module: a message whose slot was checkpointed away still crosses
        the ingress, so tampered traffic is detected and attributed to
        the signature module even when no slot engine exists to receive
        it. Without this, a corrupted envelope racing a checkpoint
        truncation would vanish unexamined.
        """
        inner = envelope.inner
        if not isinstance(inner, SignedMessage):
            self._sig_metrics.inc("messages_rejected")
            self._declare_stale(src, "signature module: unsigned payload")
            return
        if inner.body.sender != src:
            self._sig_metrics.inc("messages_rejected")
            self._declare_stale(
                src,
                f"signature module: identity field {inner.body.sender} "
                f"inconsistent with the sending channel {src}",
            )
            return
        if not self._slot_authority(envelope.slot).signature_valid(inner):
            self._sig_metrics.inc("messages_rejected")
            self._declare_stale(src, "signature module: invalid signature")

    def _declare_stale(self, culprit: int, reason: str) -> None:
        if culprit == self.pid or culprit in self._stale_culprits:
            return
        self._stale_culprits.add(culprit)
        self.faulty_union.add(culprit)
        self.record("declare_faulty", target=culprit, reason=reason)

    def _on_envelope(self, src: int, envelope: SlotEnvelope) -> None:
        if envelope.slot < self.base_slot:
            self._metrics.inc("stale_envelopes")
            self._stale_ingress(src, envelope)
            return
        engine = self._ensure_engine(envelope.slot)
        if engine is None:
            return
        engine.on_message(src, envelope.inner)
        self.faulty_union |= engine.faulty
        self._harvest(envelope.slot)

    def _harvest(self, slot: int) -> None:
        engine = self.engines.get(slot)
        if engine is None or not engine.decided or slot in self._decided:
            return
        self._decided.add(slot)
        vector = engine.decision
        self._pending_apply[slot] = vector
        justification = engine.decision_justification
        if justification is not None:
            self._vector_justifications[slot] = justification
        self._metrics.inc("slots_decided")
        if self._proposed.get(slot, NOOP) != NOOP and vector[self.pid] == NULL:
            # Our batch lost the INIT race of this slot; at-least-once:
            # the slot's release hands it to the next seat.
            self._metrics.inc("batches_lost")
        self._apply_ready()
        self._drain_batches(force=False)

    def _apply_ready(self) -> None:
        """Apply buffered decisions in strict slot order; checkpoint on
        every ``checkpoint_interval`` boundary."""
        while self.next_apply in self._pending_apply:
            slot = self.next_apply
            vector = self._pending_apply.pop(slot)
            self._vector_history[slot] = vector
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
                    committed += self._apply_entry(slot, proposer, entry)
            self._silent = frozenset(silent)
            self._release(slot)
            self.record("commit", slot=slot, commands=committed)
            self._metrics.inc("slots_applied")
            self.next_apply += 1
            if self.next_apply % self.config.checkpoint_interval == 0:
                self._take_checkpoint(self.next_apply)

    def _apply_entry(self, slot: int, proposer: int, entry: Any) -> int:
        if isinstance(entry, ClientRequest):
            if entry.ident in self.executed:
                return 0  # committed in an earlier slot or batch
            self.executed.add(entry.ident)
            self.store.apply(entry.command)
            self.log.append((slot, proposer, entry))
            self.pending.pop(entry.ident, None)
            self._passed.pop(entry.ident, None)
            self._attempts.pop(entry.ident, None)
            self._metrics.inc("commands_committed")
            if not self._replaying:
                self.send(
                    entry.client,
                    ClientReply(self.pid, entry.client, entry.req_id, slot),
                )
            return 1
        # A Byzantine proposer smuggled a non-request into the vector:
        # apply it deterministically (the store ignores unknown shapes)
        # so every correct replica stays in lockstep.
        self.store.apply(entry)
        self.log.append((slot, proposer, entry))
        self._metrics.inc("foreign_entries")
        return 0

    # -- checkpoints ---------------------------------------------------------

    def _take_checkpoint(self, count: int) -> None:
        digest = service_digest(self.store, self.executed)
        snapshot = tuple(
            sorted(
                self.store.snapshot().items(),
                key=lambda kv: (type(kv[0]).__name__, repr(kv[0])),
            )
        )
        self._local_snapshots[count] = (
            snapshot,
            tuple(sorted(self.executed)),
            self.store.applied,
            digest,
        )
        self.checkpoint_history.append((count, digest))
        self.record("checkpoint", count=count, digest=digest)
        self._metrics.inc("checkpoints_taken")
        body = Checkpoint(sender=self.pid, count=count, digest=digest)
        signed = self._ckpt_authority.make(body)
        for dst in range(self.config.n_replicas):
            self.send(dst, signed)

    def _on_checkpoint_vote(self, signed: SignedMessage) -> None:
        body = signed.body
        try:
            valid = self._ckpt_authority.signature_valid(signed)
        except Exception:
            valid = False  # structurally malformed: rejection, not crash
        if not valid:
            self._metrics.inc("checkpoint_votes_rejected")
            return
        if self.stable is not None and body.count <= self.stable.count:
            return  # already certified at or beyond this count
        votes = self._ckpt_votes.setdefault(body.count, {}).setdefault(
            body.digest, {}
        )
        votes[body.sender] = signed
        if len(votes) < self.params.f + 1:
            return
        certificate = CheckpointCertificate(
            count=body.count,
            digest=body.digest,
            certificate=Certificate(tuple(votes.values())),
        )
        local = self._local_snapshots.get(body.count)
        if local is not None:
            if local[3] == body.digest:
                self._adopt_stable(certificate, local)
            else:
                # f+1 replicas certified a digest we did not compute:
                # either we diverged or the fault bound broke. Surface
                # it; the campaign convergence oracle fails the run.
                self.checkpoint_mismatches += 1
                self.record(
                    "checkpoint_mismatch",
                    count=body.count,
                    ours=local[3],
                    theirs=body.digest,
                )
                self._metrics.inc("checkpoint_mismatches")
                if self.config.heal_on_mismatch:
                    # Self-stabilization (docs/ADVERSARIES.md): an f+1
                    # certified quorum proves *our* state arbitrary-
                    # faulted. Treat the replica as transiently corrupt:
                    # wipe the volatile state and recover through
                    # certified transfer, like a restart without the
                    # crash.
                    self._heal_divergence(body.count)
            return
        # A quorum certified state we never reached: we are lagging by
        # at least one full checkpoint interval — catch up via transfer.
        if (
            not self._transferring
            and body.count >= self.next_apply + self.config.checkpoint_interval
        ):
            self._start_state_transfer()

    def _adopt_stable(
        self, certificate: CheckpointCertificate, local: tuple
    ) -> None:
        snapshot, executed, store_applied, _digest = local
        self.stable = certificate
        self._stable_snapshot = (snapshot, executed, store_applied)
        self.certified_counts.add(certificate.count)
        self.record(
            "checkpoint_certificate",
            count=certificate.count,
            signers=sorted(certificate.signers),
        )
        self._metrics.inc("checkpoint_certificates")
        self._truncate(certificate.count)

    def _truncate(self, count: int) -> None:
        """Log compaction: drop everything the certificate covers."""
        for slot in [s for s in self.engines if s < count]:
            del self.engines[slot]
            self._cancel_slot_timers(slot)
            self._proposed.pop(slot, None)
        for slot in [s for s in self._covered if s < count]:
            self._release(slot)  # installed by a transfer, never applied here
        for slot in range(self.base_slot, count):
            self._sig_cache.drop_domain(self._slot_domain(slot))
            # Its authority files in the shared cache; a stale check
            # builds one that files in the stale cache instead.
            self._transfer_authorities.pop(slot, None)
        self._decided = {s for s in self._decided if s >= count}
        self._pending_apply = {
            s: v for s, v in self._pending_apply.items() if s >= count
        }
        self._vector_history = {
            s: v for s, v in self._vector_history.items() if s >= count
        }
        self._vector_justifications = {
            s: j for s, j in self._vector_justifications.items() if s >= count
        }
        before = len(self.log)
        self.log = [entry for entry in self.log if entry[0] >= count]
        self._metrics.inc("log_entries_truncated", before - len(self.log))
        self._local_snapshots = {
            c: s for c, s in self._local_snapshots.items() if c >= count
        }
        self._ckpt_votes = {
            c: v for c, v in self._ckpt_votes.items() if c > count
        }
        self.base_slot = count
        self._next_open = max(self._next_open, count)

    def _cancel_slot_timers(self, slot: int) -> None:
        prefix = f"slot{slot}:"
        for name in [n for n in self._view.timer_names if n.startswith(prefix)]:
            self._view.cancel_timer(name)

    # -- recovery: down / restart / state transfer ---------------------------

    def go_down(self) -> None:
        """Take the replica down: silent and deaf, but not crashed."""
        if self.down:
            return
        self.down = True
        self.downs += 1
        self.record("service_down", applied=self.next_apply)
        self._metrics.inc("downs")

    def restart(self) -> None:
        """Come back up with volatile state lost; keys and pid survive.

        Everything the replica rebuilt from messages — engines, decided
        vectors, the store, the executed set, checkpoints — is wiped;
        recovery then runs entirely through state transfer.
        """
        if not self.down:
            return
        self._wipe_volatile()
        self.down = False
        self.restarts += 1
        self.record("service_restart")
        self._metrics.inc("restarts")
        if self.config.stall_probe > 0:
            self._probe_apply = 0
            self.set_timer("stall-probe", self.config.stall_probe)
        self._start_state_transfer("restart")

    def _wipe_volatile(self) -> None:
        """Drop everything rebuilt from messages (the restart recipe)."""
        for name in list(self._view.timer_names):
            self._view.cancel_timer(name)
        self.engines.clear()
        self._decided.clear()
        self._pending_apply.clear()
        self._vector_history.clear()
        self._vector_justifications.clear()
        self._proposed.clear()
        self.pending.clear()
        self._attempts.clear()
        self._covered.clear()
        self._passed.clear()
        self._silent = frozenset()
        self.log.clear()
        self._local_snapshots.clear()
        self._ckpt_votes.clear()
        # Verification memos live in process memory: a wiped replica
        # starts cold (re-verifies everything it is shown again).
        self._sig_cache.clear()
        self._stale_sig_cache.clear()
        self._ckpt_cert_cache.clear()
        self._transfer_authorities.clear()
        self.store = KeyValueStore()
        self.executed = set()
        self.stable = None
        self._stable_snapshot = None
        self.next_apply = 0
        self.base_slot = 0
        self._next_open = 0
        self._batch_timer = False

    def _heal_divergence(self, count: int) -> None:
        """Recover from a certified-quorum digest mismatch in place.

        The replica stays up but discards its (arbitrary-faulted)
        volatile state and pulls certified state back from the peers —
        the self-stabilizing recovery the adversary zoo's transient-
        corruption oracle asserts. The ``"heal"`` transfer reason keeps
        retrying until real progress, like a restart's.
        """
        self.record("state_heal", count=count, applied=self.next_apply)
        self._metrics.inc("state_heals")
        self._wipe_volatile()
        if self.config.stall_probe > 0:
            self._probe_apply = 0
            self.set_timer("stall-probe", self.config.stall_probe)
        self._start_state_transfer("heal")

    def catch_up(self) -> None:
        """Ask peers for certified state right away.

        The net runtime calls this on a cold-started node rejoining an
        established cluster (``--join``): unlike :meth:`restart`, the OS
        process has no volatile state to wipe — it only needs to pull the
        certified snapshot and suffix before serving.
        """
        if not self.down and not self._transferring:
            self._start_state_transfer("join")

    def _stall_probe(self) -> None:
        """Anti-entropy: transfer when the apply frontier is wedged.

        A replica that lost messages of a slot (e.g. its TCP connections
        died under it) can hold later decided slots forever without being
        able to apply them — in-order apply never passes the gap. If a
        full probe period elapsed with outstanding slot work and zero
        apply progress, pull certified state from the peers.
        """
        stalled = (
            self.next_apply == self._probe_apply
            and not self._transferring
            and (bool(self._pending_apply) or self._open_slots() > 0)
        )
        if stalled:
            self._metrics.inc("stall_probes_fired")
            self._start_state_transfer("probe")
        self._probe_apply = self.next_apply
        self.set_timer("stall-probe", self.config.stall_probe)

    def _start_state_transfer(self, reason: str = "lag") -> None:
        self._transferring = True
        self._transfer_reason = reason
        self.record(
            "state_transfer_start", applied=self.next_apply, reason=reason
        )
        self._metrics.inc("state_transfers_started")
        self._broadcast_state_request()
        self.set_timer("state-retry", self.config.transfer_retry)

    def _broadcast_state_request(self) -> None:
        request = StateRequest(replica=self.pid, applied=self.next_apply)
        for dst in range(self.config.n_replicas):
            if dst != self.pid:
                self.send(dst, request)

    def _on_state_request(self, src: int, request: StateRequest) -> None:
        if not 0 <= src < self.config.n_replicas or src == self.pid:
            return
        if self.stable is not None and self._stable_snapshot is not None:
            snapshot, executed, store_applied = self._stable_snapshot
            count: int = self.stable.count
            certificate: CheckpointCertificate | None = self.stable
        else:
            snapshot, executed, store_applied, count, certificate = (
                (), (), 0, 0, None,
            )
        suffix = {
            s: v for s, v in self._vector_history.items() if s >= count
        }
        suffix.update(
            {s: v for s, v in self._pending_apply.items() if s >= count}
        )
        response = StateResponse(
            replica=self.pid,
            count=count,
            snapshot=snapshot,
            executed=executed,
            store_applied=store_applied,
            certificate=certificate,
            suffix=tuple(
                (s, v, self._vector_justifications.get(s))
                for s, v in sorted(suffix.items())
            ),
        )
        if self.storage_fault is not None:
            # The replica reads its at-rest state through the faulty
            # medium: corruption happens on the serving side, detection
            # must happen on the requesting side.
            response = self.storage_fault.corrupt_response(response)
        self._metrics.inc("state_responses")
        self._metrics.inc("state_transfer_bytes", len(repr(response)))
        self.send(src, response)

    def _suffix_entry_valid(self, slot: int, vector: Any, justification: Any) -> bool:
        """Per-slot transfer verification (the full PBFT-style check).

        A suffix entry is accepted only with the responder's signed
        DECIDE for exactly this vector, carrying an (n − F) same-round
        quorum of validly signed matching CURRENTs — all checked under
        the *slot's own* signature domain, so nothing transfers between
        slots and a forged suffix needs forged signatures. Any malformed
        shape is a rejection, never a crash.
        """
        try:
            if not isinstance(vector, tuple) or len(vector) != self.config.n_replicas:
                return False
            if not isinstance(justification, SignedMessage):
                return False
            body = justification.body
            if not isinstance(body, VDecide) or body.est_vect != vector:
                return False
            if not 0 <= body.sender < self.config.n_replicas:
                return False
            authority = self._slot_authority(slot)
            if not authority.signature_valid(justification):
                return False
            cert = justification.cert
            if not isinstance(cert, Certificate):
                return False  # a pruned justification cannot be re-checked
            by_round: dict[int, set[int]] = {}
            for entry in cert:
                inner = entry.body
                if not isinstance(inner, VCurrent):
                    continue  # est_cert entries (INITs) ride along; skip
                if inner.est_vect != vector:
                    continue
                if not 0 <= inner.sender < self.config.n_replicas:
                    continue
                if not authority.signature_valid(entry):
                    continue
                by_round.setdefault(inner.round, set()).add(inner.sender)
            return any(
                len(senders) >= self.params.quorum
                for senders in by_round.values()
            )
        except Exception:
            return False  # structurally malformed entry: rejection, not crash

    def _on_state_response(self, response: StateResponse) -> None:
        before_apply = self.next_apply
        installed = 0
        if response.count > 0:
            certificate = response.certificate
            # The snapshot is untrusted: verify the certificate (f+1
            # valid matching signatures in the checkpoint domain) and
            # recompute the digest from the payload — also when this
            # replica is past it already, so a corrupted responder is
            # rejected whichever response happened to arrive first —
            # unless the payload is, field for field, the certified
            # state this replica holds itself.
            if (
                not isinstance(certificate, CheckpointCertificate)
                or certificate.count != response.count
                or not certificate_valid(
                    certificate,
                    self._ckpt_authority,
                    self.params.f,
                    cache=self._ckpt_cert_cache,
                )
            ):
                self._metrics.inc("state_responses_rejected")
                return
            held = (
                self.stable is not None
                and self.stable.count == response.count
                and self.stable.digest == certificate.digest
                and self._stable_snapshot
                == (response.snapshot, response.executed, response.store_applied)
            )
            if not held:
                probe = KeyValueStore().restore(
                    dict(response.snapshot), applied=response.store_applied
                )
                if service_digest(probe, response.executed) != certificate.digest:
                    self._metrics.inc("state_responses_rejected")
                    return
        if response.count > self.next_apply:
            self.store = probe
            self.executed = set(response.executed)
            self.stable = certificate
            self._stable_snapshot = (
                response.snapshot,
                response.executed,
                response.store_applied,
            )
            self.next_apply = response.count
            installed = response.count
            self.certified_counts.add(response.count)
            if (response.count, certificate.digest) not in self.checkpoint_history:
                self.checkpoint_history.append(
                    (response.count, certificate.digest)
                )
            self.record(
                "snapshot_installed",
                count=response.count,
                digest=certificate.digest,
            )
            self._metrics.inc("snapshots_installed")
            self._truncate(response.count)
        # Replay the decided suffix without re-sending client replies.
        # Each entry is verified against its slot's signature domain
        # before it is believed — the suffix is exactly as untrusted as
        # the snapshot (the ROADMAP trust gap this closes).
        self._replaying = True
        for entry in response.suffix:
            if not (isinstance(entry, tuple) and len(entry) == 3):
                self._reject_suffix_entry("malformed")
                continue
            slot, vector, justification = entry
            if not isinstance(slot, int):
                continue
            if (
                slot < self.next_apply
                or slot in self._pending_apply
                or slot in self._decided
            ):
                # Decided here already: a correct responder's vector is
                # ours, so a different one is rejected whichever
                # response happened to arrive first.
                known = self._vector_history.get(
                    slot, self._pending_apply.get(slot)
                )
                if known is not None and vector != known:
                    self._reject_suffix_entry(f"slot {slot}")
                continue
            if not self._suffix_entry_valid(slot, vector, justification):
                self._reject_suffix_entry(f"slot {slot}")
                continue
            self._metrics.inc("suffix_entries_verified")
            self._decided.add(slot)
            self._pending_apply[slot] = tuple(vector)
            self._vector_justifications[slot] = justification
        self._apply_ready()
        self._replaying = False
        progress = self.next_apply > before_apply or bool(installed)
        if progress:
            self.state_transfers_completed.append(
                (self.now, installed, self.next_apply)
            )
            self.record(
                "state_transfer_complete",
                count=installed,
                applied=self.next_apply,
            )
            self._metrics.inc("state_transfers_completed")
            self._drain_batches(force=False)
        if self._transferring and (
            progress
            or (
                # A probe/join transfer may find the peers have nothing
                # we lack; stop retrying instead of livelocking. Restart
                # and lag transfers keep retrying until real progress —
                # there the replica is behind by construction.
                self._transfer_reason in ("probe", "join")
                and response.count <= before_apply
            )
        ):
            self._transferring = False
            self.cancel_timer("state-retry")

    def _reject_suffix_entry(self, what: str) -> None:
        self.suffix_rejections += 1
        self._metrics.inc("suffix_entries_rejected")
        self.record("suffix_entry_rejected", entry=what)
