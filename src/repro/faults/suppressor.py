"""Family (a): the round-based message adversary.

Within each suppression window, plan time is cut into rounds of
``round_length`` seconds; per (sender, round) the adversary picks a
seeded set of exactly ``d`` destinations whose deliveries from that
sender silently vanish. The pick is a **pure fork derivation** off the
plan seed (:meth:`repro.process.SeededRng.fork`): the set for
``(clause, src, round)`` depends only on those coordinates, never on
query order or on what other links consumed — the determinism and
independence contract the hypothesis suite pins.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan
from repro.process import SeededRng


class RoundSuppressor:
    """Deterministic per-round delivery suppression for one plan."""

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._root = SeededRng(plan.seed, f"zoo-{plan.plan_id}")
        self._sets: dict[tuple[int, int, int], frozenset[int]] = {}

    def suppression_set(
        self, clause: int, src: int, round_index: int
    ) -> frozenset[int]:
        """The destinations ``src`` cannot reach in ``round_index``."""
        key = (clause, src, round_index)
        cached = self._sets.get(key)
        if cached is None:
            d = self._plan.suppressions[clause][0]
            rng = self._root.fork(f"suppress-{clause}-{src}-{round_index}")
            candidates = [
                pid for pid in range(self._plan.n_replicas) if pid != src
            ]
            cached = frozenset(rng.sample(candidates, min(d, len(candidates))))
            self._sets[key] = cached
        return cached

    def suppressed(self, now: float, src: int, dst: int) -> bool:
        """True when the adversary removes the ``src → dst`` delivery."""
        if src == dst:
            return False
        for clause, (_d, round_length, start, end) in enumerate(
            self._plan.suppressions
        ):
            if not start <= now < end:
                continue
            round_index = int((now - start) // round_length)
            if dst in self.suppression_set(clause, src, round_index):
                return True
        return False
