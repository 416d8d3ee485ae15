"""``repro.net`` — the deployed runtime (docs/NET.md).

Runs the unchanged :mod:`repro.service` replica stack as real OS
processes over asyncio TCP: wire codec, authenticated transport,
replica host, quorum client and local-cluster orchestration.
"""

from repro.net.client import NetClient, NetClientError
from repro.net.clock import ManualScheduler, WallScheduler
from repro.net.cluster import (
    ClusterError,
    LocalCluster,
    free_ports,
    make_genesis,
    run_cluster_smoke,
    wait_cluster_ready,
)
from repro.net.faulty import FaultyPeerTransport
from repro.net.genesis import HELLO_DOMAIN, Genesis
from repro.net.messages import (
    ROLE_CLIENT,
    ROLE_REPLICA,
    Hello,
    ReadReply,
    ReadRequest,
    StatusReply,
    StatusRequest,
)
from repro.net.node import BoundedTrace, NetNode, serve_replica
from repro.net.transport import (
    LoopbackHub,
    LoopbackTransport,
    PeerTransport,
    TransportError,
)
from repro.net.wire import (
    EnvelopeTable,
    FrameAssembler,
    WireError,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
    register_wire_type,
)

__all__ = [
    "NetClient",
    "NetClientError",
    "ManualScheduler",
    "WallScheduler",
    "ClusterError",
    "LocalCluster",
    "free_ports",
    "make_genesis",
    "run_cluster_smoke",
    "wait_cluster_ready",
    "FaultyPeerTransport",
    "HELLO_DOMAIN",
    "Genesis",
    "ROLE_CLIENT",
    "ROLE_REPLICA",
    "Hello",
    "ReadReply",
    "ReadRequest",
    "StatusReply",
    "StatusRequest",
    "BoundedTrace",
    "NetNode",
    "serve_replica",
    "LoopbackHub",
    "LoopbackTransport",
    "PeerTransport",
    "TransportError",
    "EnvelopeTable",
    "FrameAssembler",
    "WireError",
    "decode_frame",
    "decode_payload",
    "encode_frame",
    "encode_payload",
    "register_wire_type",
]
