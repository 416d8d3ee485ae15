"""The transformation methodology as an API (paper Section 3).

The paper's methodology is *generic but not automatic*: the five-module
structure, the certificate guidelines and the state-machine construction
are protocol-independent, while the concrete certificates and automata
must be designed per protocol ("the situation is similar to designing
loops for sequential programs"). This module captures exactly that split:

* :class:`TransformationBlueprint` is the protocol-independent part — it
  assembles, per process, a signature/certification authority, a muteness
  detector and the transformed protocol module, wiring them into the
  Figure 1 structure;
* the protocol-dependent parts (certificate rules, behaviour automata,
  the transformed algorithm itself) are injected as factories.

:func:`repro.systems.build_transformed_system` instantiates the blueprint
for the consensus case study of Sections 4–5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.certificates import CertificationAuthority
from repro.core.modules import ModuleConfig
from repro.core.specs import SystemParameters
from repro.crypto.keys import KeyAuthority
from repro.crypto.signatures import SignatureScheme
from repro.detectors.base import FailureDetector
from repro.process import Process

#: Builds the muteness detector for one process.
MutenessFactory = Callable[[int], FailureDetector]

#: Builds the transformed protocol module for one process. Receives
#: (pid, proposal, authority, muteness detector, module config).
ProtocolFactory = Callable[
    [int, Any, CertificationAuthority, FailureDetector, ModuleConfig], Process
]


@dataclass(slots=True)
class TransformationBlueprint:
    """Protocol-independent assembly of the five-module process structure.

    Args:
        params: the validated system parameters (n, F, C).
        scheme: the signature scheme shared by the system (the paper's
            public-key infrastructure).
        key_authority: holds every process's signing capability.
        muteness_factory: produces a ◇M-class detector per process.
        protocol_factory: produces the transformed protocol module; this
            is where all protocol-specific design (certificates, automata)
            enters the blueprint.
        config: module ablation switches (all on by default).
    """

    params: SystemParameters
    scheme: SignatureScheme
    key_authority: KeyAuthority
    muteness_factory: MutenessFactory
    protocol_factory: ProtocolFactory
    config: ModuleConfig = field(default_factory=ModuleConfig.full)

    def build_process(self, pid: int, proposal: Any) -> Process:
        """Assemble the full five-module process for ``pid``.

        The signature module is realised by the per-process
        :class:`~repro.core.certificates.CertificationAuthority` (sign /
        verify); the muteness module by the injected detector; the
        non-muteness and certification modules are constructed inside the
        protocol factory, which owns their protocol-specific halves.
        """
        authority = CertificationAuthority(
            self.scheme, self.key_authority.signer_for(pid)
        )
        detector = self.muteness_factory(pid)
        return self.protocol_factory(
            pid, proposal, authority, detector, self.config
        )

    def build_all(self, proposals: list[Any]) -> list[Process]:
        """One assembled process per proposal, pid = position."""
        return [
            self.build_process(pid, proposal)
            for pid, proposal in enumerate(proposals)
        ]
