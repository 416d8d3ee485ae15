"""repro — a reproduction of Baldoni, Hélary & Raynal (DSN 2000):
*From Crash Fault-Tolerance to Arbitrary-Fault Tolerance: Towards a
Modular Approach*.

The library implements, from scratch and on a deterministic simulator of
an asynchronous message-passing system:

* the crash-model Hurfin–Raynal consensus protocol (paper Figure 2) and
  a Chandra–Toueg baseline;
* the generic transformation methodology (five-module process structure,
  certificates, behaviour automata, vector certification — Section 3);
* the transformed Byzantine-resilient Vector Consensus protocol (Figure
  3) with its non-muteness detection automata (Figure 4);
* ◇S and ◇M failure detectors (oracle-driven and timeout-based);
* a gallery of Byzantine behaviours covering the paper's fault taxonomy;
* property checkers and an experiment harness regenerating every
  figure-level claim of the paper (see EXPERIMENTS.md).

Quickstart::

    from repro import build_transformed_system, transformed_attack

    system = build_transformed_system(
        ["a", "b", "c", "d"],
        byzantine=transformed_attack(3, "corrupt-vector"),
        seed=1,
    )
    system.run()
    print(system.decisions())        # the decided vectors
    print(system.processes[0].faulty)  # p0's faulty set: {3}
"""

import importlib

__version__ = "1.0.0"

#: The quickstart API: each name, and the module that defines it. Nothing
#: is imported until a name is first read, so ``import repro.net.node``
#: loads no simulator, analysis or attack module.
_EXPORTS = {
    "CRASH_ATTACKS": "repro.byzantine.adversary",
    "Certificate": "repro.core.certificates",
    "CertificationAuthority": "repro.core.certificates",
    "ConsensusSystem": "repro.systems",
    "ModuleConfig": "repro.core.modules",
    "SignedMessage": "repro.core.certificates",
    "SystemParameters": "repro.core.specs",
    "TRANSFORMED_ATTACKS": "repro.byzantine.adversary",
    "TransformationBlueprint": "repro.core.transformer",
    "build_crash_system": "repro.systems",
    "build_transformed_system": "repro.systems",
    "check_crash_consensus": "repro.analysis.properties",
    "check_detection": "repro.analysis.properties",
    "check_vector_consensus": "repro.analysis.properties",
    "crash_attack": "repro.byzantine.adversary",
    "measure": "repro.analysis.metrics",
    "run_trials": "repro.analysis.experiments",
    "transformed_attack": "repro.byzantine.adversary",
    "transformed_attacks_at": "repro.byzantine.adversary",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted([*globals(), *_EXPORTS])
