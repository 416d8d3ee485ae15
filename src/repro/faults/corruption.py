"""Families (b) and (d): transient live-state and at-rest corruption.

Family (b) scribbles seeded garbage over a *correct* replica's live
state at one instant — the replicated store (its digest then diverges
from the certified quorum, which the certification module must expose)
or its muteness detectors (hair-trigger timeouts, which the estimator
must back off from on its own). The fault is transient: the replica is
expected to re-converge, and :func:`repro.faults.oracle.reconvergence_verdict`
judges whether it did.

Family (d) models the Barbieri et al. hardware fault: a **stuck bit**
in the storage medium. A :class:`StorageFault` installed on a replica
corrupts every piece of at-rest state it serves from then on — decided
log entries (``suffix``) or the checkpoint snapshot — so whenever a
catching-up peer pulls state, the signature + certification re-checks on
the *requesting* side must reject the corrupted payload.

All garbage is derived by pure seed forks (:func:`corruption_rng`), so
injection is deterministic and independent of event order.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.faults.plan import FaultPlan
from repro.process import SeededRng

#: Family labels that name the garbage streams: they are part of every
#: fork label :func:`corruption_rng` derives, so they never change.
FAMILY_STATE_CORRUPTION = "state-corruption"
FAMILY_STORAGE_FLIP = "storage-flip"


def corruption_rng(plan: FaultPlan, family: str, pid: int) -> SeededRng:
    """The seeded garbage stream for one (family, replica) injection."""
    return SeededRng(plan.seed, f"zoo-{plan.plan_id}").fork(f"{family}-{pid}")


def corrupt_live_state(process: Any, target: str, rng: SeededRng) -> dict:
    """Scribble garbage into a live replica ``target``; returns details.

    ``process`` is a :class:`~repro.service.replica.ServiceReplicaProcess`;
    the writes deliberately bypass its command interface (this models
    memory corruption, not an API call).
    """
    if target == "store":
        key = f"zoo-corrupt-{rng.randint(0, 0xFFFF):04x}"
        value = f"{rng.randint(0, 0xFFFFFFFF):08x}"
        process.slotlog.store._put(key, value)  # memory scribble, not a command
        return {"target": target, "key": key}
    if target == "detector":
        scrambled = 0
        for engine in process.engines.values():
            detector = getattr(engine, "detector", None)
            if detector is None:
                continue
            garbage = rng.uniform(1e-4, 1e-2)
            for attr in ("_timeout", "_srtt", "_rttvar"):
                table = getattr(detector, attr, None)
                if isinstance(table, dict):
                    for pid in list(table):
                        table[pid] = garbage
            scrambled += 1
        return {"target": target, "detectors": scrambled}
    raise ValueError(f"unknown live-corruption target {target!r}")


class StorageFault:
    """Sticky at-rest corruption of the state a replica serves.

    Installed on a replica at the clause's ``at`` time; from then on
    every :class:`~repro.service.messages.StateResponse` it sends passes
    through :meth:`corrupt_response`, which flips the configured
    targets. ``injected`` counts actual corruptions (a response with
    nothing to corrupt passes through unchanged and uncounted).
    """

    def __init__(
        self, targets: tuple[str, ...], rng: SeededRng, metrics: Any = None
    ) -> None:
        self.targets = frozenset(targets)
        #: Fixed garbage marker: sticky storage returns the *same* wrong
        #: bits on every read, like a stuck cell — and keeps responses
        #: deterministic.
        self._marker = f"zoo-flip-{rng.randint(0, 0xFFFF):04x}"
        self._metrics = metrics
        self.injected = 0

    def _count(self) -> None:
        self.injected += 1
        if self._metrics is not None:
            self._metrics.inc("storage_flips_injected")

    def corrupt_response(self, response: Any) -> Any:
        """Apply the stuck bits to an outgoing ``StateResponse``."""
        if "checkpoint" in self.targets and response.count > 0 and (
            response.snapshot
        ):
            key, value = response.snapshot[0]
            if value != self._marker:
                response = replace(
                    response,
                    snapshot=((key, self._marker),) + response.snapshot[1:],
                )
                self._count()
        if "log" in self.targets and response.suffix:
            slot, vector, justification = response.suffix[-1]
            if (
                isinstance(vector, tuple)
                and vector
                and vector[-1] != self._marker
            ):
                corrupted = vector[:-1] + (self._marker,)
                response = replace(
                    response,
                    suffix=response.suffix[:-1]
                    + ((slot, corrupted, justification),),
                )
                self._count()
        return response
