"""Message protocol between the application master and workers (§V-D).

Every message carries a unique ID; receivers deduplicate by ID and senders
resend on timeout — the paper's fault-tolerance recipe ("we tag every
message with a unique ID and resend it in case of timeout").

These primitives are transport-agnostic: the networked stack in
:mod:`repro.net` allocates every ID with :class:`MessageFactory`, runs
its one resend loop in :class:`repro.net.ReliableLink` and its one dedup
window in :class:`repro.net.ServerCore` — the in-memory, TCP and shm
paths share one code path for the §V-D recipe, and
:class:`repro.coordination.FaultPlan` drives the drops and duplicates
that exercise it.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import secrets


class MessageType(enum.Enum):
    """Protocol message kinds (paper Fig. 2 steps and Table III calls)."""

    ADJUSTMENT_REQUEST = "adjustment_request"  # scheduler -> AM   (step 1)
    COORDINATE = "coordinate"  # existing worker -> AM             (step 3)
    ACK = "ack"
    JOIN = "join"  # joining worker -> AM (poll = report, step 2; spec + state)
    SYNC = "sync"  # worker -> AM (gradient rendezvous barrier)
    STATE_UPLOAD = "state_upload"  # uploader -> AM (snapshot / digest)
    STATE_CHUNK = "state_chunk"  # uploader -> AM (one snapshot chunk)
    STATE_DONE = "state_done"  # uploader -> AM (all chunks sent; digest)
    STATE_FETCH = "state_fetch"  # joiner -> owner or AM (one chunk; probe; complete)
    STATUS = "status"  # driver -> AM (job progress query)
    ENROLL = "enroll"  # worker -> successor AM (re-enroll after failover)
    RING_SEGMENT = "ring_segment"  # worker -> ring successor (one bucket)
    RING_FETCH = "ring_fetch"  # worker -> peer (iteration state / mean)
    TELEMETRY = "telemetry"  # worker -> AM (metric/trace delta); driver query
    # -- cluster-scheduler plane (scheduler service <-> clients / AMs) --------
    SUBMIT = "submit"  # client -> scheduler (queue one job request)
    OFFER = "offer"  # client -> scheduler (poll one job's placement)
    RELEASE = "release"  # client/driver -> scheduler (return a job's GPUs)
    JOB_STATUS = "job_status"  # client -> scheduler (queue/allocation tables)


@dataclasses.dataclass(frozen=True)
class Message:
    """One protocol message.

    ``msg_id`` is globally unique per logical message; a retransmission
    reuses the ID so receivers can deduplicate.  A ``post`` is one-way:
    the receiver executes it exactly once like any message and sends no
    reply (docs/PROTOCOL.md, "One-way messages").  ``borrowed`` is the
    delivering pipe's word to the handler: the payload's arrays may
    alias memory someone reuses once the handler returns (a shm ring
    slot, the in-process sender's live buffers), so a handler copies
    what it keeps; only a pipe that read them into a buffer of their
    own clears it.
    """

    msg_id: int
    msg_type: MessageType
    sender: str
    payload: dict
    post: bool = False
    borrowed: bool = True

    def duplicate(self) -> "Message":
        """A retransmission of this message (same ID on purpose)."""
        return self


class MessageFactory:
    """Allocates message IDs unique across process incarnations.

    IDs are ``(epoch << EPOCH_SHIFT) + counter`` where the epoch is a
    random per-factory nonce.  Receivers dedup on ``(sender, msg_id)``,
    and a restarted worker reuses its worker id (that is the
    self-healing layer's recovery model) — were the counter to restart
    at 1 too, the fresh incarnation's first requests would be
    misclassified as retransmissions and answered with cached replies
    of unrelated earlier messages.  Pass ``epoch=0`` when a test wants
    small deterministic IDs.
    """

    #: Low bits reserved for the per-epoch counter (~1M messages; an
    #: overflow merely bleeds into a neighbouring epoch's space, which
    #: the 40-bit random epoch makes vanishingly unlikely to collide).
    EPOCH_SHIFT = 20

    def __init__(self, epoch: "int | None" = None):
        # 40 + 20 bits keeps every ID well inside int64, so JSON and
        # the lean frame header carry it exactly.
        self.epoch = secrets.randbits(40) if epoch is None else epoch
        self._ids = itertools.count((self.epoch << self.EPOCH_SHIFT) + 1)

    def make(
        self, msg_type: MessageType, sender: str, payload: dict,
        post: bool = False,
    ) -> Message:
        """Create a new uniquely-identified message.

        The message takes ``payload`` as it is, no copy: hand it a dict
        nobody else mutates (:meth:`ReliableLink.request` hands it the
        one copy it makes of its caller's).
        """
        return Message(
            msg_id=next(self._ids),
            msg_type=msg_type,
            sender=sender,
            payload=payload,
            post=post,
        )
