"""One verdict for a sharded run: each shard is the fault plan it ran.

A shard is a complete replica group, so :func:`~repro.faults.oracle.settled`
says when it has converged and :func:`~repro.faults.oracle.judge` gives
its verdict, as for any fault plan (docs/FAULTS.md). Only the check
that spans shards, distinct states, is written here.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.faults.oracle import VERDICT_PASS, FidelityObservation, judge
from repro.faults.plan import FaultPlan

#: ``(shard, pid, at, rejoin_at)``: the one kill of a sharded run.
Kill = tuple[int, int, float, float]


def shard_plans(
    routed: Mapping[int, int],
    *,
    n_replicas: int,
    seed: int,
    duration: float,
    kill: Kill | None = None,
) -> dict[int, FaultPlan]:
    """Each shard's plan: the sets routed to it are its ``requests``, and
    ``kill`` is in its shard's. A shard routed no sets gets
    ``requests=0``, which :meth:`FaultPlan.validate` refuses: its plan is
    only settled and judged, never run, and at a progress floor of 0 both
    still ask every live replica for a final state and one digest."""
    return {
        shard: FaultPlan(
            name=f"shard-{shard}",
            seed=seed,
            n_replicas=n_replicas,
            requests=requests,
            duration=duration,
            kills=(kill[1:],) if kill is not None and kill[0] == shard else (),
        )
        for shard, requests in sorted(routed.items())
    }


def shard_verdicts(
    plans: Mapping[int, FaultPlan],
    observations: Mapping[int, FidelityObservation],
) -> dict[str, Any]:
    """Each shard's verdict and violations, the cross-shard check's
    violations (``isolation``), and ``ok`` when there are none at all.
    A kill that cost another shard a commit needs no check of its own:
    that shard's ``progress:`` floor already fails. Distinct states: no
    two shards that were routed sets share a digest, or the map routed
    one history to both (idle shards share the empty state's)."""
    results = {shard: judge(plans[shard], obs) for shard, obs in observations.items()}
    owners: dict[str, list[int]] = {}
    for shard, observation in sorted(observations.items()):
        if plans[shard].requests:
            for digest in set(observation.digests.values()):
                owners.setdefault(digest, []).append(shard)
    isolation = [
        f"isolation: shards {shards} report one state digest {digest[:12]}"
        for digest, shards in owners.items()
        if len(shards) > 1
    ]
    return {
        "verdicts": {str(shard): verdict for shard, (verdict, _) in results.items()},
        "violations": {str(shard): found for shard, (_, found) in results.items()},
        "isolation": isolation,
        "ok": not isolation
        and all(verdict == VERDICT_PASS for verdict, _ in results.values()),
    }


def shard_state(observations: Mapping[int, FidelityObservation]) -> dict[str, Any]:
    """Each shard's committed counts, digests and rejoiners' transfers by
    pid; a shard with none of one is left out of it."""
    return {
        name: {
            str(shard): {str(pid): value for pid, value in values.items()}
            for shard, observation in sorted(observations.items())
            if (values := getattr(observation, name))
        }
        for name in ("committed", "digests", "transfers")
    }
