"""Consensus protocols: the crash-model originals and the transformed one."""

from repro.consensus.base import ConsensusProcess
from repro.consensus.chandra_toueg import ChandraTouegProcess
from repro.consensus.hurfin_raynal import HurfinRaynalProcess, coordinator_of
from repro.consensus.monitor import (
    EquivocationLedger,
    FaultReport,
    MonitorBank,
    PeerMonitor,
    PeerMonitorBase,
)
from repro.consensus.shell import TransformedShell
from repro.consensus.transformed import TransformedConsensusProcess
from repro.consensus.transformed_ct import TransformedCtProcess

__all__ = [
    "ChandraTouegProcess",
    "ConsensusProcess",
    "EquivocationLedger",
    "FaultReport",
    "HurfinRaynalProcess",
    "MonitorBank",
    "PeerMonitor",
    "PeerMonitorBase",
    "TransformedConsensusProcess",
    "TransformedCtProcess",
    "TransformedShell",
    "coordinator_of",
]
