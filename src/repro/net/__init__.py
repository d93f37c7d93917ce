"""Real network transport for the AM/worker control plane.

One protocol (:class:`Transport`), three implementations — in-memory,
length-prefixed TCP, and shared-memory ring buffers for co-located
peers — sharing a single dedup/resend code path, so the §V-D
fault-tolerance recipe and every chaos schedule behave identically
in-process, over real sockets, and across ``/dev/shm``.  On top of the seam:
:class:`NetworkedApplicationMaster` (the message-driven AM + gradient
rendezvous), :class:`WorkerAgent` (one replica), and
:class:`MultiprocessElasticJob` (an elastic job as N OS processes).
Steady-state gradients bypass the AM entirely via the decentralized
ring allreduce (:class:`RingNode` over per-worker peer endpoints,
:mod:`.peers`); the AM's star rendezvous remains the adjustment-window
and degradation fallback.

Crash tolerance rides on a write-ahead :class:`Journal`: a successor AM
replays it (:meth:`NetworkedApplicationMaster.from_journal`), fences the
predecessor out with a higher epoch, and finishes or aborts any
in-flight commit; workers re-enroll and resume.  Heartbeat leases evict
silently dead workers, and :class:`ChaosSoak` runs the whole stack under
a deterministic fault schedule against goodput/MTTR SLOs.
"""

from .agent import JoinRejected, WorkerAgent, WorkerEvicted
from .chunks import (
    DEFAULT_CHUNK_BYTES,
    ChunkAssembler,
    ChunkedFetcher,
    ChunkedUploader,
    ChunkStore,
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
from .job import JobFailed, MultiprocessElasticJob
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
from .soak import (
    ChaosSoak,
    GoodputReport,
    SLOViolation,
    SoakSchedule,
    derive_report,
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
    "ChunkStore",
    "ChunkedFetcher",
    "ChunkedUploader",
    "FaultAction",
    "InMemoryTransport",
    "StateBlob",
    "TransferError",
    "decode_state_blob",
    "DEFAULT_RING_BUCKET_BYTES",
    "DEFAULT_SHM_CAPACITY",
    "ChaosSoak",
    "GoodputReport",
    "JobFailed",
    "JobSpec",
    "JoinRejected",
    "Journal",
    "JournalError",
    "JournalState",
    "MemoryPeerHost",
    "MultiprocessElasticJob",
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
    "SoakSchedule",
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
    "reserve_port",
    "shm_link",
    "tcp_link",
]
