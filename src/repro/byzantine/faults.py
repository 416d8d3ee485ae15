"""The paper's fault taxonomy (Section 2) as data.

Every Byzantine behaviour in :mod:`repro.byzantine.behaviors` is tagged
with the failure class it realises and the module that is responsible for
detecting it (the modularity claim of the paper: each failure type is
encapsulated in a specific module). Experiments E4 and E8 are driven off
this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class FailureClass(Enum):
    """The two top-level classes and their manifestations (Section 2/3)."""

    MUTENESS = "muteness"  # permanent message omission (includes crash)
    VALUE_CORRUPTION = "value-corruption"  # corrupted variable / message value
    DUPLICATION = "duplication"  # statement executed twice
    SPURIOUS_MESSAGE = "spurious-message"  # message the text cannot generate
    MISEVALUATION = "misevaluation"  # wrongly evaluated send/decide condition
    IDENTITY_FALSIFICATION = "identity-falsification"  # wrong sender
    TRANSIENT_OMISSION = "transient-omission"  # skipped statements


class DetectingModule(Enum):
    """Which of the five modules (Figure 1) catches a failure class."""

    SIGNATURE = "signature"
    MUTENESS_DETECTOR = "muteness-detector"
    NON_MUTENESS_DETECTOR = "non-muteness-detector"
    CERTIFICATION = "certification"


@dataclass(frozen=True, slots=True)
class FaultProfile:
    """Metadata describing one Byzantine behaviour in the gallery."""

    name: str
    failure_class: FailureClass
    detecting_module: DetectingModule
    description: str
    #: True when the fault manifests through messages (detectable by
    #: receivers); pure muteness is only visible as absence.
    visible_in_messages: bool = True


#: Expected detector for each failure class — the paper's encapsulation map.
EXPECTED_DETECTOR: dict[FailureClass, DetectingModule] = {
    FailureClass.MUTENESS: DetectingModule.MUTENESS_DETECTOR,
    FailureClass.VALUE_CORRUPTION: DetectingModule.CERTIFICATION,
    FailureClass.DUPLICATION: DetectingModule.NON_MUTENESS_DETECTOR,
    FailureClass.SPURIOUS_MESSAGE: DetectingModule.NON_MUTENESS_DETECTOR,
    FailureClass.MISEVALUATION: DetectingModule.CERTIFICATION,
    FailureClass.IDENTITY_FALSIFICATION: DetectingModule.SIGNATURE,
    FailureClass.TRANSIENT_OMISSION: DetectingModule.NON_MUTENESS_DETECTOR,
}


#: Reason-string prefixes of the signature checks: the shell's ingress
#: (``repro.core.certificates``) and echo-INIT's on RB-delivered INITs.
_SIGNATURE_PREFIXES = (
    "signature module:",
    "echo-init: RB payload is not a signed INIT",
    "echo-init: RB-delivered INIT claims another process's identity",
    "echo-init: invalid INIT signature",
)
#: Reason-string prefixes of the behaviour automata (Figure 4's, the
#: Chandra-Toueg one in ``monitor_ct``) and of echo-INIT's behaviour rule.
_AUTOMATON_PREFIXES = (
    "out-of-order",
    "identity mismatch",
    "spurious:",
    "misevaluation:",
    "echo-init: INIT outside reliable broadcast",
)


def classify_fault_reason(reason: str) -> DetectingModule:
    """Map one ``FaultReport.reason`` string to its raising module.

    The monitor bank funnels every declaration through one ledger, so
    the module boundary is recovered from the (stable, tested) reason
    vocabulary: the signature checks and the behaviour automata each
    raise their own listed prefixes, and everything else comes out of
    the certification analysers (including the equivocation ledger,
    which proves value corruption from signed evidence).
    """
    if reason.startswith(_SIGNATURE_PREFIXES):
        return DetectingModule.SIGNATURE
    if reason.startswith(_AUTOMATON_PREFIXES):
        return DetectingModule.NON_MUTENESS_DETECTOR
    return DetectingModule.CERTIFICATION
