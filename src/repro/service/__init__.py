"""repro.service — a long-lived BFT replicated service on the log.

The consensus stack proves agreement one instance at a time; this
package runs the *service* the paper's modular transformation exists to
protect: clients submit commands, replicas batch them into pipelined
Vector Consensus slots, apply the decided log in order to a replicated
key-value store, checkpoint and compact the log under f+1-signed
certificates, and bring lagging or restarted replicas back with
certified state transfer. See docs/SERVICE.md.
"""

from repro.service.checkpoint import (
    CheckpointCertificate,
    certificate_valid,
    service_digest,
)
from repro.service.clients import ClosedLoopClient, OpenLoopClient, ServiceClient
from repro.service.config import CLIENT_MODES, ServiceConfig
from repro.service.messages import (
    Checkpoint,
    ClientReply,
    ClientRequest,
    SlotEnvelope,
    StateRequest,
    StateResponse,
)
from repro.service.replica import (
    EngineFactory,
    ServiceReplicaProcess,
    SlotEnv,
    default_engine,
)
from repro.service.runtime import ServiceSystem, build_service_system

__all__ = [
    "CLIENT_MODES",
    "Checkpoint",
    "CheckpointCertificate",
    "ClientReply",
    "ClientRequest",
    "ClosedLoopClient",
    "EngineFactory",
    "OpenLoopClient",
    "ServiceClient",
    "ServiceConfig",
    "ServiceReplicaProcess",
    "ServiceSystem",
    "SlotEnv",
    "SlotEnvelope",
    "StateRequest",
    "StateResponse",
    "build_service_system",
    "certificate_valid",
    "default_engine",
    "service_digest",
]
