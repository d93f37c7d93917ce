"""Real network transport for the AM/worker control plane.

One protocol (:class:`Transport`), three implementations — in-memory,
length-prefixed TCP, and shared-memory ring buffers for co-located
peers — sharing a single dedup/resend code path, so the §V-D
fault-tolerance recipe and every chaos schedule behave identically
in-process, over real sockets, and across ``/dev/shm``.  On top of the seam:
:class:`NetworkedApplicationMaster` (the message-driven AM + gradient
rendezvous), :class:`WorkerAgent` (one replica), and the one way to
run a job: :class:`LocalJob` (the AM in this process, its agents as
threads here or as ``repro.cli join`` OS processes).
Steady-state gradients bypass the AM entirely via the decentralized
ring allreduce (:class:`RingNode` over per-worker peer endpoints,
:mod:`.peers`); the AM's star rendezvous remains the adjustment-window
and degradation fallback.

Crash tolerance rides on a write-ahead :class:`Journal`: every takeover
is one :func:`promote` — a successor AM replays the journal, fences the
predecessor out with a higher epoch, and finishes or aborts any
in-flight commit; workers re-enroll and resume.  Heartbeat leases evict
silently dead workers.  :mod:`.scenario` runs a JSON scenario file —
one job under churn, worker and AM kills, link resets and a dying shard
owner, or many jobs under a cluster scheduler and spot capacity — and
checks its outcome and SLOs; it sits above :mod:`repro.cluster`, so
this package does not import it.
"""

from ..observability import GoodputReport, SLOViolation, derive_report
from .agent import JoinRejected, WorkerAgent, WorkerEvicted
from .chunks import (
    DEFAULT_CHUNK_BYTES,
    ChunkAssembler,
    ChunkedUploader,
    StateBlob,
    TransferError,
    decode_state_blob,
)
from .codecs import decode_bucket, encode_bucket
from .collective import (
    DEFAULT_RING_BUCKET_BYTES,
    RingDegraded,
    RingLayout,
    RingMailbox,
    RingNode,
    ring_reference_average,
)
from .job import LocalJob, promote
from .journal import Journal, JournalError, JournalState
from .master_service import JobSpec, NetworkedApplicationMaster
from .peers import (
    MemoryPeerHost,
    PeerHost,
    TcpPeerHost,
    parse_peer_addr,
    peer_scheme,
)
from .shm import (
    DEFAULT_SHM_CAPACITY,
    ShmPeerHost,
    ShmRing,
    ShmServer,
    ShmTransport,
    shm_link,
)
from .tcp import TcpServer, TcpTransport, reserve_port, tcp_link
from .telemetry import TelemetryShipper
from .transport import (
    FaultAction,
    InMemoryTransport,
    ReliableLink,
    RemoteError,
    RequestTimeout,
    RetryableError,
    ServerCore,
    Transport,
    TransportClosed,
    TransportFaults,
    memory_link,
)
from .wire import PROTOCOL_VERSION, WireError, params_digest

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "PROTOCOL_VERSION",
    "ChunkAssembler",
    "ChunkedUploader",
    "FaultAction",
    "InMemoryTransport",
    "StateBlob",
    "TransferError",
    "decode_state_blob",
    "DEFAULT_RING_BUCKET_BYTES",
    "DEFAULT_SHM_CAPACITY",
    "GoodputReport",
    "JobSpec",
    "JoinRejected",
    "Journal",
    "JournalError",
    "JournalState",
    "LocalJob",
    "MemoryPeerHost",
    "NetworkedApplicationMaster",
    "PeerHost",
    "RingDegraded",
    "RingLayout",
    "RingMailbox",
    "RingNode",
    "SLOViolation",
    "ShmPeerHost",
    "ShmRing",
    "ShmServer",
    "ShmTransport",
    "TcpPeerHost",
    "TelemetryShipper",
    "ring_reference_average",
    "ReliableLink",
    "RemoteError",
    "RequestTimeout",
    "RetryableError",
    "ServerCore",
    "TcpServer",
    "TcpTransport",
    "Transport",
    "TransportClosed",
    "TransportFaults",
    "WireError",
    "WorkerAgent",
    "WorkerEvicted",
    "decode_bucket",
    "derive_report",
    "encode_bucket",
    "memory_link",
    "params_digest",
    "parse_peer_addr",
    "peer_scheme",
    "promote",
    "reserve_port",
    "shm_link",
    "tcp_link",
]
