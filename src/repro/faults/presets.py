"""Named plan matrices for ``repro campaign faults --preset NAME``.

* ``smoke`` — muteness, partition-then-heal, kill/rejoin and bit-flip,
  the ``make faults-smoke`` matrix (docs/FAULTS.md);
* ``extended`` — smoke plus link noise and a colluding replica;
* ``zoo-smoke`` — one plan per adversary family, the ``make zoo-smoke``
  matrix (docs/ADVERSARIES.md);
* ``zoo-extended`` — zoo-smoke plus the second target of families (b)
  and (d);
* ``zoo-sweep`` — the ``(F, d)`` compounding matrix of the message
  adversary: process faults (F muted replicas) crossed with the
  per-broadcast suppression bound d, probing where the two bounds
  compound (at n=4, F=1, quorum=3 a receiver can lose the mute plus
  d=2 further inputs — below the quorum — so the corner is expected to
  need the settle horizon's retransmissions to converge);
* ``zoo-net-smoke`` — the single family-(a) plan the make target runs at
  fidelity 3 under a hard timeout;
* ``net-smoke`` — the ``make net-smoke`` run at fidelity 3: 100 sets
  while replica 2 is SIGKILLed mid-workload and rejoins with ``--join``
  (certified state transfer over sockets).
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan


def _preset_plans() -> dict[str, tuple[FaultPlan, ...]]:
    smoke = (
        FaultPlan(
            name="mute-one",
            seed=11,
            requests=18,
            duration=10.0,
            mutes=((1, 3.0),),
        ),
        FaultPlan(
            name="partition-heal",
            seed=12,
            requests=18,
            duration=12.0,
            partitions=((3.0, 6.0, "0,1|2,3"),),
        ),
        FaultPlan(
            name="kill-rejoin",
            seed=13,
            requests=18,
            duration=12.0,
            kills=((2, 3.0, 6.0),),
        ),
        FaultPlan(
            name="bit-flip",
            seed=14,
            requests=18,
            duration=10.0,
            flips=((1, 1.0, 3),),
        ),
    )
    extended = smoke + (
        FaultPlan(
            name="link-noise",
            seed=15,
            requests=18,
            duration=12.0,
            loss=0.02,
            duplication=0.02,
            reorder=0.05,
            reorder_spread=0.3,
        ),
        FaultPlan(
            name="collusion-corrupt-vector",
            seed=16,
            requests=18,
            duration=12.0,
            collusion=((3, "corrupt-vector"),),
        ),
    )
    zoo_smoke = (
        # One 0.5 s suppression round: enough traffic to prove injection
        # (tens of removed deliveries) while the quorum geometry can
        # still absorb d=1 — the engines never retransmit consensus
        # traffic, so longer windows can starve a slot of its quorum at
        # every live replica and wedge the pipeline (see the sweep).
        FaultPlan(
            name="zoo-message-adversary",
            seed=21,
            requests=18,
            duration=12.0,
            suppressions=((1, 0.5, 2.0, 2.5),),
        ),
        FaultPlan(
            name="zoo-transient-store",
            seed=22,
            requests=18,
            duration=12.0,
            corruptions=((2, 4.0, "store"),),
        ),
        # The attacker is only interesting when quorum-critical: mute a
        # second replica so every quorum must include the slow peer.
        FaultPlan(
            name="zoo-timing-burst",
            seed=23,
            requests=18,
            duration=14.0,
            mutes=((1, 2.0),),
            timing=((3, 3.0, 9.0, 3.0),),
        ),
        FaultPlan(
            name="zoo-storage-flip-log",
            seed=24,
            requests=18,
            duration=12.0,
            kills=((2, 2.0, 6.0),),
            storage_flips=((0, 3.0, "log"),),
        ),
    )
    zoo_extended = zoo_smoke + (
        FaultPlan(
            name="zoo-transient-detector",
            seed=25,
            requests=18,
            duration=12.0,
            corruptions=((1, 4.0, "detector"),),
        ),
        FaultPlan(
            name="zoo-storage-flip-checkpoint",
            seed=26,
            requests=18,
            duration=12.0,
            kills=((2, 2.0, 6.0),),
            storage_flips=((0, 3.0, "checkpoint"),),
        ),
    )
    # The (F, d) corner cells compound past what quorum geometry absorbs:
    # with n=4 (quorum 3) a mute spends the whole F budget, and a
    # sustained d-per-round suppression of unretransmitted consensus
    # traffic can leave every live replica short of some round's quorum —
    # a permanently undecided slot, so progress legitimately fails. Those
    # cells are declared vulnerable; the benign corner keeps the short
    # window the smoke plan survives.
    zoo_sweep = tuple(
        FaultPlan(
            name=f"zoo-fd-F{f_count}-d{d}",
            seed=30 + 2 * f_count + d,
            requests=18,
            duration=12.0,
            mutes=((1, 3.0),) if f_count else (),
            suppressions=(
                ((d, 0.5, 2.0, 2.5),)
                if (f_count, d) == (0, 1)
                else ((d, 0.25, 2.0, 4.0),)
            ),
            expect="pass" if (f_count, d) == (0, 1) else "vulnerable",
        )
        for f_count in (0, 1)
        for d in (1, 2)
    )
    return {
        "smoke": smoke,
        "extended": extended,
        "zoo-smoke": zoo_smoke,
        "zoo-extended": zoo_extended,
        "zoo-sweep": zoo_sweep,
        "zoo-net-smoke": zoo_smoke[:1],
        "net-smoke": (
            # The workload is paced over the first 14 s: the kill lands
            # after about 40 of the 100 sets, the rejoin after about 80.
            FaultPlan(
                name="net-smoke",
                seed=7,
                requests=100,
                duration=20.0,
                kills=((2, 5.6, 11.2),),
            ),
        ),
    }


#: Named plan matrices for the CLI and the make targets.
FAULT_PRESETS = _preset_plans()
