#!/usr/bin/env python
"""Tour of the fault taxonomy: every attack vs the five-module defence.

Runs each Byzantine behaviour in the catalogue against a 4-process
transformed system and reports, per attack: the paper's failure class,
the module responsible for catching it, whether the correct processes
kept all properties, and who got convicted or suspected.

Run:  python examples/attack_gallery.py
"""

from repro import (
    TRANSFORMED_ATTACKS,
    build_transformed_system,
    check_detection,
    check_vector_consensus,
    transformed_attack,
)
from repro.analysis.reporting import print_table
from repro.byzantine.adversary import transformed_attack_profile

SEAT = {"equivocate-current": 0, "wrong-cert-current": 0}
PROPOSALS = ["a", "b", "c", "d"]

rows = []
for name in sorted(TRANSFORMED_ATTACKS):
    attacker = SEAT.get(name, 3)
    system = build_transformed_system(
        PROPOSALS,
        byzantine=transformed_attack(attacker, name),
        seed=11,
    )
    system.run(max_time=2_000)
    profile = transformed_attack_profile(name)
    report = check_vector_consensus(system)
    detection = check_detection(system)
    rows.append(
        [
            name,
            profile.failure_class.value,
            profile.detecting_module.value,
            "yes" if report.all_hold else "NO",
            detection.detectors_per_culprit.get(attacker, 0),
            "yes" if attacker in detection.suspected_by_any else "no",
        ]
    )

print_table(
    "Attack gallery vs the transformed protocol (n=4, F=1)",
    ["attack", "failure class", "owning module", "safe", "convictions", "suspected"],
    rows,
)

assert all(row[3] == "yes" for row in rows), "every attack must be absorbed"
print("Every attack absorbed; consult the convictions column for detection.")
