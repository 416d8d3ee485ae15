"""One campaign engine, three fidelities: unified fault plans from pure
simulation to real TCP clusters (docs/FAULTS.md), with the adversary
zoo's families as ordinary plan axes (docs/ADVERSARIES.md)."""

from repro.faults.injector import LinkFaultInjector, flip_signed_payload
from repro.faults.loopback_runner import run_loopback_plan
from repro.faults.oracle import (
    FidelityObservation,
    judge,
    judge_zoo,
    live_correct,
)
from repro.faults.plan import (
    EXPECTATIONS,
    FAULTS_SCHEMA,
    FAULTS_SCHEMA_V1,
    FIDELITIES,
    FIDELITY_LOOPBACK,
    FIDELITY_NET,
    FIDELITY_SIM,
    FaultPlan,
    check_faults_schema,
)
from repro.faults.presets import FAULT_PRESETS
from repro.faults.report import (
    CrossFidelityReport,
    PlanResult,
    run_cross_fidelity,
    run_plan,
)
from repro.faults.shrink import ShrinkResult, shrink_fault_plan
from repro.faults.sim_runner import run_service_plan, run_sim_plan

__all__ = [
    "CrossFidelityReport",
    "EXPECTATIONS",
    "FAULTS_SCHEMA",
    "FAULTS_SCHEMA_V1",
    "FAULT_PRESETS",
    "FIDELITIES",
    "FIDELITY_LOOPBACK",
    "FIDELITY_NET",
    "FIDELITY_SIM",
    "FaultPlan",
    "FidelityObservation",
    "LinkFaultInjector",
    "PlanResult",
    "ShrinkResult",
    "check_faults_schema",
    "flip_signed_payload",
    "judge",
    "judge_zoo",
    "live_correct",
    "run_cross_fidelity",
    "run_loopback_plan",
    "run_plan",
    "run_service_plan",
    "run_sim_plan",
    "shrink_fault_plan",
]
