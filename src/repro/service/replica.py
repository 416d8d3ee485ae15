"""The service replica: slot engines, checkpoints, state transfer.

A :class:`ServiceReplicaProcess` runs the replicated key-value service
on a log of slots, each decided by its own transformed Figure-3 engine
(behind a :class:`SlotEnv`) under its own signature domain. The request
rules — the seat that proposes each held request, when a slot opens,
in-order exactly-once apply — are the :class:`~repro.service.slotlog.
SlotLog` core, which has no I/O: the replica feeds it events and carries
out the intents it returns, in order. The replica keeps the rest: the
engines, checkpoint votes and certificates (f+1 matching signed digests
let it truncate the log), and certified state transfer for a restarted
or lagging replica (docs/SERVICE.md).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.consensus.transformed import TransformedConsensusProcess
from repro.core.certificates import (
    Certificate,
    CertificationAuthority,
    SignedMessage,
    signature_refusal,
)
from repro.core.modules import ModuleConfig
from repro.core.specs import SystemParameters
from repro.crypto.cache import SignatureCache
from repro.crypto.keys import KeyAuthority
from repro.crypto.signatures import SignatureScheme
from repro.detectors.base import FailureDetector
from repro.detectors.diamond_m import (
    AdaptiveMutenessDetector,
    MutenessDetector,
)
from repro.messages.consensus import VCurrent, VDecide
from repro.observability.registry import MODULE_SERVICE, MODULE_SIGNATURE
from repro.process import Process, ProcessEnv
from repro.service.checkpoint import (
    CheckpointCertCache,
    CheckpointCertificate,
    certificate_valid,
    service_digest,
    state_from_wire,
)
from repro.service.config import ServiceConfig
from repro.service.messages import (
    Checkpoint,
    ClientReply,
    ClientRequest,
    SlotEnvelope,
    StateRequest,
    StateResponse,
)
from repro.service.slotlog import (
    ArmBatchTimer, CheckpointDue, Commit, Open, Reply, SlotLog,
)

#: Factory producing the consensus engine for one slot. Signature matches
#: the transformed-system protocol factory, letting attacks be injected
#: per replica.
EngineFactory = Callable[
    [int, Any, SystemParameters, CertificationAuthority, FailureDetector,
     ModuleConfig],
    TransformedConsensusProcess,
]

#: Messages a joining replica holds until its join transfer ends; past
#: this many the oldest is dropped, as a dialer's backlog drops it.
JOIN_HOLD_LIMIT = 1024


def default_engine(pid, proposal, params, authority, detector, config):
    """The honest-engine factory: one transformed Figure-3 instance."""
    return TransformedConsensusProcess(
        proposal=proposal,
        params=params,
        authority=authority,
        detector=detector,
        config=config,
    )


def _from(table: dict, count: int) -> dict:
    """The entries of ``table`` keyed ``count`` or later."""
    return {key: value for key, value in table.items() if key >= count}


class SlotEnv:
    """One slot engine's window onto the world (the ``ProcessEnv`` shape).

    Clients share the world but take no part in consensus, so ``n`` is
    the replica count: everything an engine derives from it (broadcast
    fan-out, quorums, coordinator rotation, detector targets) sees the
    replica group alone. Sends are dropped while the replica is down (a
    down replica is silent, not crashed) and wrapped in a
    :class:`SlotEnvelope`; timers are namespaced ``slot{k}:`` under the
    replica's environment, and the env keeps its own timer names so a
    truncation or a restart cancels exactly the slot's timers.
    """

    __slots__ = (
        "_replica", "_env", "slot", "n", "pid", "scheduler", "trace", "rng",
        "metrics", "_timers",
    )

    def __init__(self, replica: "ServiceReplicaProcess", slot: int) -> None:
        env = replica.env
        self._replica = replica
        self._env = env
        self.slot = slot
        self.n = replica.config.n_replicas
        self.pid = env.pid
        self.scheduler = env.scheduler
        self.trace = env.trace
        self.rng = env.rng
        # Slot engines share the replica's registry: per-slot counters
        # aggregate under the same (module, pid) keys.
        self.metrics = env.metrics
        self._timers: set[str] = set()

    @property
    def now(self) -> float:
        return self._env.now

    @property
    def crashed(self) -> bool:
        return self._env.crashed

    def send(self, dst: int, payload: Any) -> None:
        if not self._replica.down:
            self._env.send(dst, SlotEnvelope(slot=self.slot, inner=payload))

    def set_timer(self, owner, name: str, delay: float) -> None:
        self._timers.add(name)
        self._env.set_timer(self, f"slot{self.slot}:{name}", delay)

    def cancel_timer(self, name: str) -> None:
        self._timers.discard(name)
        self._env.cancel_timer(f"slot{self.slot}:{name}")

    def cancel_timers(self) -> None:
        for name in list(self._timers):
            self.cancel_timer(name)

    def on_timer(self, name: str) -> None:
        """A namespaced timer fired: the slot's engine sees its own name.

        The engine is looked up, not kept: an env that held its engine
        would close a reference cycle, and a truncated slot's engine
        would outlive its truncation until a full garbage collection.
        """
        engine = self._replica.engines.get(self.slot)
        if engine is not None:
            engine.on_timer(name.partition(":")[2])


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
        # -- slot pipeline ---------------------------------------------------
        #: The request rules and the applied state (bound in :meth:`bind`).
        self.slotlog: SlotLog
        self.engines: dict[int, Any] = {}
        #: Applied vectors retained since the stable checkpoint — the
        #: suffix served to catching-up peers.
        self._vector_history: dict[int, tuple] = {}
        #: slot -> the signed DECIDE justifying the slot's vector (the
        #: engine's ``decision_justification``, or the verified one a
        #: transfer installed) — shipped alongside the suffix so peers
        #: can re-check each slot against its own signature domain.
        self._vector_justifications: dict[int, SignedMessage] = {}
        self.base_slot = 0
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
        #: While a join transfer runs: the messages held back until it
        #: ends (``None`` otherwise).
        self._held: deque[tuple[int, Any]] | None = None
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
        self._metrics = env.metrics.scope(MODULE_SERVICE, env.pid)
        self._sig_metrics = env.metrics.scope(MODULE_SIGNATURE, env.pid)
        self.slotlog = SlotLog(self.config, env.pid, self._metrics)
        self._sig_cache.attach_metrics(self._sig_metrics)
        self._stale_sig_cache.attach_metrics(self._sig_metrics)
        self._ckpt_cert_cache.attach_metrics(self._metrics)
        # The checkpoint signature domain is separated from every slot's:
        # it is the domain a slot -1 would have.
        self._ckpt_authority = self._authority(-1, self._sig_cache)

    def send(self, dst: int, payload: Any) -> None:
        if self.down:
            return
        super().send(dst, payload)

    # -- message routing ----------------------------------------------------

    def on_start(self) -> None:
        if self.config.stall_probe > 0:
            self.set_timer("stall-probe", self.config.stall_probe)

    def on_message(self, src: int, payload: Any) -> None:
        if self.down:
            return
        if self._held is not None and not isinstance(
            payload, (StateRequest, StateResponse)
        ):
            self._held.append((src, payload))
            return
        if isinstance(payload, SlotEnvelope):
            self._on_envelope(src, payload)
        elif isinstance(payload, ClientRequest):
            self._run(self.slotlog.request(src, payload))
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
            self._run(self.slotlog.batch_timer())
        elif name == "state-retry" and self._transferring:
            self._broadcast_state_request()
            self.set_timer("state-retry", self.config.transfer_retry)
        elif name == "stall-probe":
            self._stall_probe()

    def _run(self, intents) -> None:
        """Carry out the slot log's intents in the order it gave them."""
        for intent in intents:
            match intent:
                case Reply(client, req_id, slot):
                    self.send(client, ClientReply(self.pid, client, req_id, slot))
                case Open(slot, proposal):
                    self._open(slot, proposal)
                case Commit(slot, vector, commands):
                    self._vector_history[slot] = vector
                    self.record("commit", slot=slot, commands=commands)
                case CheckpointDue(count, state):
                    self._take_checkpoint(count, state)
                case ArmBatchTimer():
                    self.set_timer("batch", self.config.batch_delay)

    # -- the slot pipeline ---------------------------------------------------

    def _slot_domain(self, slot: int) -> tuple[int, int]:
        """The ``KeyAuthority.domain`` of ``slot``'s authority: one per
        slot, by a fixed affine map of the seed (domain separation)."""
        return (self.config.n_replicas, self.config.seed * 1_000_003 + slot)

    def _authority(self, slot: int, cache: SignatureCache) -> CertificationAuthority:
        keys = KeyAuthority(*self._slot_domain(slot))
        return CertificationAuthority(
            SignatureScheme(keys, cache=cache), keys.signer_for(self.pid)
        )

    def _open(self, slot: int, proposal: Any) -> None:
        authority = self._authority(slot, self._sig_cache)
        adaptive = self.config.muteness_detector == "adaptive"
        detector = (AdaptiveMutenessDetector if adaptive else MutenessDetector)(
            initial_timeout=self.config.muteness_timeout
        )
        engine = self.engine_factory(
            self.pid, proposal, self.params, authority, detector, self.module_config
        )
        engine.bind(SlotEnv(self, slot))  # type: ignore[arg-type]
        self.engines[slot] = engine
        engine.on_start()

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
            authority = self._authority(
                slot,
                self._sig_cache if slot >= self.base_slot else self._stale_sig_cache,
            )
            if len(self._transfer_authorities) >= 256:
                self._transfer_authorities.pop(
                    next(iter(self._transfer_authorities))
                )
            self._transfer_authorities[slot] = authority
        return authority

    def _on_envelope(self, src: int, envelope: SlotEnvelope) -> None:
        slot = envelope.slot
        if type(slot) is not int or slot < 0:
            # A slot is an int >= 0 (bool is no slot): a fraction or a
            # string would open slots no decision ever fills.
            self._metrics.inc("envelopes_rejected")
            return
        if slot < self.base_slot:
            self._metrics.inc("stale_envelopes")
            self._stale_ingress(src, envelope)
            return
        engine = self.engines.get(slot)
        if engine is None:
            self._run(self.slotlog.join(slot))
            engine = self.engines.get(slot)
            if engine is None:
                return
        engine.on_message(src, envelope.inner)
        self._harvest(slot)

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
        reason = signature_refusal(
            src,
            envelope.inner,
            lambda inner: self._slot_authority(envelope.slot).signature_valid(inner),
        )
        if reason is None:
            return
        self._sig_metrics.inc("messages_rejected")
        if src != self.pid and src not in self._stale_culprits:
            self._stale_culprits.add(src)
            self.record("declare_faulty", target=src, reason=reason)

    def _harvest(self, slot: int) -> None:
        engine = self.engines.get(slot)
        if engine is None or not engine.decided or slot in self.slotlog.decided:
            return
        justification = engine.decision_justification
        if justification is not None:
            self._vector_justifications[slot] = justification
        self._metrics.inc("slots_decided")
        self._run(self.slotlog.decide(slot, engine.decision))

    # -- checkpoints ---------------------------------------------------------

    def _take_checkpoint(self, count: int, state: tuple) -> None:
        digest = state[3]
        self._local_snapshots[count] = state
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
            and body.count >= self.slotlog.next_apply + self.config.checkpoint_interval
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
            self.engines.pop(slot).env.cancel_timers()
        self.slotlog.truncate(count)
        for slot in range(self.base_slot, count):
            self._sig_cache.drop_domain(self._slot_domain(slot))
            # Its authority files in the shared cache; a stale check
            # builds one that files in the stale cache instead.
            self._transfer_authorities.pop(slot, None)
        self._vector_history = _from(self._vector_history, count)
        self._vector_justifications = _from(self._vector_justifications, count)
        self._local_snapshots = _from(self._local_snapshots, count)
        self._ckpt_votes = {c: v for c, v in self._ckpt_votes.items() if c > count}
        self.base_slot = count

    # -- recovery: down / restart / state transfer ---------------------------

    def go_down(self) -> None:
        """Take the replica down: silent and deaf, but not crashed."""
        if self.down:
            return
        self.down = True
        self.downs += 1
        self.record("service_down", applied=self.slotlog.next_apply)
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
        self._recover("restart")

    def _wipe_volatile(self) -> None:
        """Drop everything rebuilt from messages (the restart recipe)."""
        for engine in self.engines.values():
            engine.env.cancel_timers()
        self.engines.clear()
        self.slotlog.reset()
        self._vector_history.clear()
        self._vector_justifications.clear()
        self._local_snapshots.clear()
        self._ckpt_votes.clear()
        # Verification memos live in process memory: a wiped replica
        # starts cold (re-verifies everything it is shown again).
        self._sig_cache.clear()
        self._stale_sig_cache.clear()
        self._ckpt_cert_cache.clear()
        self._transfer_authorities.clear()
        self.stable = None
        self._stable_snapshot = None
        self.base_slot = 0

    def _heal_divergence(self, count: int) -> None:
        """Recover from a certified-quorum digest mismatch in place.

        The replica stays up but discards its (arbitrary-faulted)
        volatile state and pulls certified state back from the peers —
        the self-stabilizing recovery the adversary zoo's transient-
        corruption oracle asserts. The ``"heal"`` transfer reason keeps
        retrying until real progress, like a restart's.
        """
        self.record("state_heal", count=count, applied=self.slotlog.next_apply)
        self._metrics.inc("state_heals")
        self._wipe_volatile()
        self._recover("heal")

    def _recover(self, reason: str) -> None:
        """Pull certified state back after a wipe, the stall probe re-armed."""
        if self.config.stall_probe > 0:
            self._probe_apply = 0
            self.set_timer("stall-probe", self.config.stall_probe)
        self._start_state_transfer(reason)

    def catch_up(self) -> None:
        """Ask peers for certified state right away.

        The net runtime calls this on a cold-started node rejoining an
        established cluster (``--join``): unlike :meth:`restart`, the OS
        process has no volatile state to wipe — it only needs to pull the
        certified snapshot and suffix before serving. Until the transfer
        ends every other message is held back, so what the peers kept
        for the replica's former self while it was dead (their dialers'
        backlogs) lands on certified state instead of standing in for it.
        """
        if not self.down and not self._transferring:
            self._held = deque(maxlen=JOIN_HOLD_LIMIT)
            self._start_state_transfer("join")

    def _stall_probe(self) -> None:
        """Anti-entropy: transfer when the apply frontier is wedged.

        A replica that lost messages of a slot (e.g. its TCP connections
        died under it) can hold later decided slots forever without being
        able to apply them — in-order apply never passes the gap. If a
        full probe period elapsed with outstanding slot work and zero
        apply progress, pull certified state from the peers.
        """
        log = self.slotlog
        stalled = (
            log.next_apply == self._probe_apply
            and not self._transferring
            and (bool(log.buffered) or log.open_slots() > 0)
        )
        if stalled:
            self._metrics.inc("stall_probes_fired")
            self._start_state_transfer("probe")
        self._probe_apply = log.next_apply
        self.set_timer("stall-probe", self.config.stall_probe)

    def _start_state_transfer(self, reason: str = "lag") -> None:
        self._transferring = True
        self._transfer_reason = reason
        self.record(
            "state_transfer_start", applied=self.slotlog.next_apply, reason=reason
        )
        self._metrics.inc("state_transfers_started")
        self._broadcast_state_request()
        self.set_timer("state-retry", self.config.transfer_retry)

    def _broadcast_state_request(self) -> None:
        request = StateRequest(replica=self.pid, applied=self.slotlog.next_apply)
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
        suffix = _from(self._vector_history, count)
        suffix.update(_from(self.slotlog.buffered, count))
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
            quorum = self.params.quorum
            return any(len(senders) >= quorum for senders in by_round.values())
        except Exception:
            return False  # structurally malformed entry: rejection, not crash

    def _on_state_response(self, response: StateResponse) -> None:
        log = self.slotlog
        before_apply = log.next_apply
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
                    certificate, self._ckpt_authority, self.params.f,
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
                try:
                    probe, executed = state_from_wire(
                        response.snapshot, response.executed, response.store_applied
                    )
                except ValueError:
                    self._metrics.inc("state_responses_rejected")
                    return
                if service_digest(probe, executed) != certificate.digest:
                    self._metrics.inc("state_responses_rejected")
                    return
        if response.count > before_apply:
            # Not ``held``: this replica holds only counts it applied.
            log.install(response.count, probe, executed)
            self.stable = certificate
            self._stable_snapshot = (
                response.snapshot, executed.ids(), response.store_applied
            )
            installed = response.count
            self.certified_counts.add(response.count)
            if (response.count, certificate.digest) not in self.checkpoint_history:
                self.checkpoint_history.append((response.count, certificate.digest))
            self.record(
                "snapshot_installed", count=response.count, digest=certificate.digest
            )
            self._metrics.inc("snapshots_installed")
            self._truncate(response.count)
        # Replay the decided suffix without re-sending client replies.
        # Each entry is verified against its slot's signature domain
        # before it is believed — the suffix is exactly as untrusted as
        # the snapshot (the ROADMAP trust gap this closes).
        for entry in response.suffix:
            if not (isinstance(entry, tuple) and len(entry) == 3):
                self._reject_suffix_entry("malformed")
                continue
            slot, vector, justification = entry
            if not isinstance(slot, int):
                continue
            if slot < log.next_apply or slot in log.buffered or slot in log.decided:
                # Decided here already: a correct responder's vector is
                # ours, so a different one is rejected whichever
                # response happened to arrive first.
                known = self._vector_history.get(slot, log.buffered.get(slot))
                if known is not None and vector != known:
                    self._reject_suffix_entry(f"slot {slot}")
                continue
            if not self._suffix_entry_valid(slot, vector, justification):
                self._reject_suffix_entry(f"slot {slot}")
                continue
            self._metrics.inc("suffix_entries_verified")
            log.learn(slot, tuple(vector))
            self._vector_justifications[slot] = justification
        self._run(log.apply(reply=False))
        progress = log.next_apply > before_apply or bool(installed)
        if progress:
            self.state_transfers_completed.append((self.now, installed, log.next_apply))
            self.record(
                "state_transfer_complete", count=installed, applied=log.next_apply
            )
            self._metrics.inc("state_transfers_completed")
            self._run(log.drain())
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
            held, self._held = self._held or (), None
            for src, payload in held:
                self.on_message(src, payload)

    def _reject_suffix_entry(self, what: str) -> None:
        self.suffix_rejections += 1
        self._metrics.inc("suffix_entries_rejected")
        self.record("suffix_entry_rejected", entry=what)
