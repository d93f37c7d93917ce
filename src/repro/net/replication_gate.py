"""The AM's side of state replication: intake, round gates, join offers.

The elected uploader streams its snapshot blob in with ``STATE_CHUNK`` /
``STATE_DONE`` into one :class:`~repro.net.chunks.ChunkAssembler` for
the in-flight plan; the AM verifies it, journals it as the plan's
``snapshot`` record and never decodes it.  Everything joiners then see
is *derived* from that record by :meth:`ReplicationGate.derive` — the
shard plan every join offer carries, the :class:`_Download` that
serves the AM's own shard over ``STATE_FETCH``, the replication
planner's round gates, and the single-use join offers — on the live
path right after the record lands and, with the very same function, by
a successor after journal replay.

The gate answers; it never waits.  A joiner's round probe or AM chunk
request whose round is still closed is answered ``pending``, and the AM
holds such a request on its ``changed`` condition: the gate notifies it
whenever an answer may have changed — a completion report opens later
rounds, :meth:`ReplicationGate.derive` mints offers and downloads,
:meth:`ReplicationGate.forget` drops them.
"""

from __future__ import annotations

import threading
import time
import typing

from ..replication.planner import plan_replication
from ..topology.builder import ServerSpec, build_node
from ..topology.tree import DeviceKind, TopologyNode
from .chunks import ChunkAssembler, _digest, _ShardEntry, shard_ranges
from .journal import JournalState, joiners_of
from .wire import WireError


class _Download(_ShardEntry):
    """One journaled snapshot, planned as shards and gated by rounds.

    A frozen-blob view over the ``snapshot`` record: the application
    master never decodes it — it verified the whole-blob digest at
    ``STATE_DONE`` and serves chunks of it (digested lazily) for the
    owner-less shard and for re-planned ones.  ``rounds`` carries the
    replication planner's ordering: a joiner's round opens once every
    earlier-round joiner has reported its fetch complete, mirroring the
    plan's contention-free rounds.
    """

    __slots__ = ("digest", "rounds", "done", "shards")

    def __init__(self, snapshot: dict, rounds: "dict[str, int]",
                 shards: "list[dict]"):
        super().__init__(snapshot["blob"], snapshot["chunk_bytes"], now=0.0)
        self.digest = snapshot["digest"]
        self.rounds = dict(rounds)
        #: joiners that reported ``state_fetch {complete: true}``
        self.done: "set[str]" = set()
        #: the shard plan (ranges + digest + owner + peer addr per
        #: shard), shipped verbatim in every joiner's offer.
        self.shards = shards

    def fetched(self, joiner: str) -> bool:
        return joiner in self.done

    @property
    def complete(self) -> bool:
        return self.done.issuperset(self.rounds)

    def round_open(self, joiner: str) -> bool:
        mine = self.rounds[joiner]
        return all(
            other in self.done
            for other, r in self.rounds.items()
            if r < mine
        )

    def describe(self, transfer_id: str, joiner: str) -> dict:
        """The ``state_transfer`` descriptor for one joiner's offer."""
        return {
            "transfer_id": transfer_id,
            "total_bytes": self.total_bytes,
            "total_chunks": self.total_chunks,
            "chunk_bytes": self.chunk_bytes,
            "digest": self.digest,
            "round": self.rounds[joiner],
            "shards": [dict(shard) for shard in self.shards],
        }


def _fanout_rounds(
    sources: typing.Sequence[str], joiners: typing.Sequence[str],
    state_bytes: int, fan_in: int = 1,
) -> "dict[str, int]":
    """The replication planner's round index per joiner.

    Workers are modeled as single-GPU nodes of a flat cluster (every
    pair is an L4/NET hop whose path claims only the two endpoint
    NICs), so the planner's contention rules reduce to exactly the
    paper's: distinct node pairs copy concurrently, a shared source
    serializes, and chained fan-out lets round-``r`` joiners serve
    round ``r+1``.

    ``fan_in > 1`` models the sharded migration instead: each joiner
    pulls disjoint shards from up to ``fan_in`` sources at once, so the
    planner schedules per-joiner fan-in groups as units — same-round
    joiners never share an owner link (chaining is off; shard owners
    are elected among the survivors only).
    """
    cluster = TopologyNode(DeviceKind.CLUSTER, "netjob")
    spec = ServerSpec(sockets=1, switches_per_socket=1, gpus_per_switch=1)
    gpus = {}
    for worker in (*sources, *joiners):
        node = build_node(worker, spec=spec, parent=cluster)
        gpus[worker] = next(node.iter_gpus())
    plan = plan_replication(
        existing=[gpus[w] for w in sources],
        new=[gpus[w] for w in joiners],
        gpu_bytes=state_bytes,
        cpu_bytes=0,
        allow_chaining=fan_in <= 1,
        fan_in=fan_in,
    )
    rounds: "dict[str, int]" = {}
    for index, round_ in enumerate(plan.rounds):
        for transfer in round_:
            rounds[transfer.target.name.rsplit("/", 1)[0]] = index
    return rounds


class ReplicationGate:
    """Chunk intake, downloads, round gates and join offers of one AM.

    Only the uploaded blob is durable (the ``snapshot`` record, written
    through ``record``); the intake, downloads, fetch progress and
    offers are volatile and rebuilt by :meth:`derive` — a successor's
    intake starts empty, and the uploader resends what it lacks.
    ``changed`` is a condition over the AM lock: held for every call
    into the gate, notified whenever a held request may be answerable.
    ``mint_offer(plan, descriptor)`` builds a joiner's offer around a
    ``state_transfer`` descriptor; ``on_snapshot`` lets the AM try to
    finish the commit.
    """

    def __init__(
        self, state: JournalState, changed: threading.Condition,
        metrics, tracer,
        record: "typing.Callable[..., None]",
        mint_offer: "typing.Callable[[dict, dict], dict]",
        on_snapshot: "typing.Callable[[], None]",
    ):
        self.state = state
        self.changed = changed
        self.metrics = metrics
        self.tracer = tracer
        self._record = record
        self._mint_offer = mint_offer
        self._on_snapshot = on_snapshot
        #: the in-flight plan's upload: opened by its first chunk (every
        #: chunk carries the blob's geometry), dropped once the snapshot
        #: lands and whenever a plan is minted or aborted.
        self.intake: "ChunkAssembler | None" = None
        #: uploads this incarnation verified and journaled.
        self.completed = 0
        self.downloads: "dict[str, _Download]" = {}
        #: joiner -> its single-use ``join`` reply, minted by derive().
        self.offers: "dict[str, dict]" = {}

    # -- intake: the uploader's STATE_CHUNK / STATE_DONE -----------------------

    def _intake_for(
        self, worker: str, payload: dict
    ) -> "ChunkAssembler | dict":
        """Lock held: the plan's intake for this message, or a refusal.

        Only the plan's uploader may upload, and only one transfer per
        plan: the first message opens the intake, a message for any
        other transfer is refused.
        """
        plan = self.state.plan
        if plan is None or worker != plan["uploader"]:
            return {"ok": False, "reason": "no snapshot expected"}
        transfer_id = payload.get("transfer_id")
        if not transfer_id:
            raise WireError("upload carries no transfer id")
        if self.intake is None:
            self.intake = ChunkAssembler(
                transfer_id=str(transfer_id),
                total_bytes=payload.get("total_bytes", -1),
                total_chunks=payload.get("total_chunks", -1),
                chunk_bytes=payload.get("chunk_bytes", 0),
            )
        elif self.intake.transfer_id != transfer_id:
            return {
                "ok": False,
                "reason": f"transfer {self.intake.transfer_id!r} in flight",
            }
        return self.intake

    def handle_chunk(self, worker: str, payload: dict) -> dict:
        """One verified chunk of the uploader's snapshot blob."""
        with self.changed:
            intake = self._intake_for(worker, payload)
            if isinstance(intake, dict):
                return intake
            seq = payload.get("seq")
            fresh = intake.add(seq, payload.get("data", b""),
                               payload.get("digest"))
            if fresh:
                self.metrics.counter("net.chunks.received").inc()
                self.metrics.counter("net.chunks.bytes_received").inc(
                    intake.chunk_len(seq)
                )
            else:
                self.metrics.counter("net.chunks.duplicate").inc()
            return {"ok": True, "seq": seq}

    def handle_done(self, worker: str, payload: dict) -> dict:
        """Finalize a chunked upload: verify, journal, derive the rest.

        Chunks still missing (a successor took over mid-stream) are
        listed in the reply for the uploader to resend.  The AM
        journals the assembled blob verbatim (digest-verified, never
        decoded) and offers it to joiners as a shard plan, gated in the
        replication planner's round order.
        """
        with self.changed:
            transfer_id = str(payload.get("transfer_id"))
            landed = self.state.last_snapshot
            if landed is not None and landed["transfer_id"] == transfer_id:
                # Duplicate DONE for a transfer this AM (or its
                # predecessor) already journaled.
                return {
                    "ok": True,
                    "chunks": landed["total_chunks"],
                    "payload_bytes": landed["total_bytes"],
                    "duplicates": 0,
                }
            intake = self._intake_for(worker, payload)
            if isinstance(intake, dict):
                return intake
            if not intake.complete:
                return {"ok": False, "reason": "incomplete",
                        "missing": intake.missing}
            blob = intake.finish(payload.get("digest"))  # raises WireError
            self.intake = None
            self.completed += 1
            self.metrics.counter("net.transfers.completed").inc()
            self.metrics.histogram("net.transfer_seconds").observe(
                time.monotonic() - intake.started_at
            )
            self._record(
                "snapshot", generation=self.state.plan["generation"],
                transfer_id=transfer_id,
                # The one copy of the blob: the download views it.
                blob=bytes(blob),
                total_bytes=intake.total_bytes,
                total_chunks=intake.total_chunks,
                chunk_bytes=intake.chunk_bytes,
                # Hashed once: the digest finish() just verified.
                digest=intake.digest or _digest(blob),
            )
            self.derive(planned=True)
            self._on_snapshot()
            return {
                "ok": True,
                "chunks": intake.total_chunks,
                "payload_bytes": intake.total_bytes,
                "duplicates": intake.duplicates,
            }

    # -- derived: the download, its round gates, the offers --------------------

    def wake(self) -> None:
        """Wake every request the AM holds, to ask its question again."""
        with self.changed:
            self.changed.notify_all()

    def derive(self, planned: bool = False) -> None:
        """Lock held: rebuild download + offers from the journal fold.

        Serves the in-flight plan's snapshot or — so a joiner whose
        offer reply was lost can still be answered after a failover —
        the last committed generation's, to the joiners that have not
        finished.  ``planned`` is the live path: joiners fetch in the
        replication planner's rounds.  After replay there is no way to
        know which round each joiner had reached; serving everyone from
        round 0 trades the contention-free schedule for guaranteed
        progress.  Elected shard owners that were since condemned (or
        never advertised a peer address) are dropped from the shard
        plan; with none left the plan is one owner-less shard, the
        whole blob, which joiners pull from the AM.
        """
        state = self.state
        plan = state.plan or state.last_commit
        snap = state.last_snapshot
        if plan is None or snap is None or (
            snap["generation"] != plan["generation"]
        ):
            return
        joiners = joiners_of(plan)
        if state.plan is None:
            joiners = [
                w for w in joiners
                if w not in state.final and w not in state.departed
            ]
        if not joiners:
            return
        owners = [
            o for o in (plan.get("shards") or {}).get("owners", ())
            if o not in state.condemned and o in state.peers
        ]
        if planned:
            # Sharded fan-in: per-joiner groups pull one shard slice
            # from every owner concurrently; the planner schedules the
            # groups so same-round joiners never share an owner.
            rounds = _fanout_rounds(
                owners or plan["old_group"], joiners, snap["total_bytes"],
                fan_in=max(1, len(owners)),
            )
        else:
            rounds = dict.fromkeys(joiners, 0)
        shards = shard_ranges(
            snap["total_chunks"], snap["chunk_bytes"], snap["total_bytes"],
            max(1, len(owners)),
        )
        blob = memoryview(snap["blob"])
        for shard in shards:
            # A lone shard is the whole blob: its digest is the one this
            # AM verified at STATE_DONE, no second hash.
            shard["digest"] = snap["digest"] if len(shards) == 1 else _digest(
                blob[shard["start_byte"]:shard["end_byte"]]
            )
            # No live owner: the AM serves the whole blob itself.
            owner = owners[shard["index"] % len(owners)] if owners else None
            shard["owner"] = owner
            shard["addr"] = state.peers[owner] if owner else None
        self.metrics.counter("net.shards.planned").inc(len(shards))
        download = _Download(snap, rounds, shards)
        transfer_id = snap["transfer_id"]
        self.downloads[transfer_id] = download
        for joiner in joiners:
            self.offers[joiner] = self._mint_offer(
                plan, download.describe(transfer_id, joiner)
            )
        if self.tracer is not None:
            self.tracer.instant(
                "replicate.fanout", track="am", cat="replicate",
                transfer_id=transfer_id, rounds=rounds,
                payload_bytes=download.total_bytes,
                chunks=download.total_chunks,
                shards=len(shards), owners=owners,
            )
        self.wake()

    def take_offer(self, worker: str, generation: int) -> "dict | None":
        """Lock held: consume ``worker``'s offer if it is for ``generation``.

        Consumed either way: a retransmission of this very poll is
        answered from the ServerCore reply cache, and the offer must not
        survive to be replayed — stale generation, stale snapshot — if
        the same worker id is scaled out and back in by a later
        adjustment.  Only the offer minted for the live (or in-flight)
        generation may be served; anything older belongs to a previous
        incarnation of this worker id and would park the joiner at a
        dead iteration where its SYNC barriers never complete.
        """
        offer = self.offers.pop(worker, None)
        if offer is not None and offer["generation"] == generation:
            return offer
        return None

    def forget(self, joiners: typing.Iterable[str]) -> None:
        """Lock held: a plan was minted for (or aborted under) ``joiners``.

        Any half-built upload belongs to the previous plan and goes.
        A joiner that never polled its offer from an earlier adjustment
        (it crashed, or was scaled out before joining) must wait for the
        new plan's snapshot, not receive the old one.  Fully-fetched
        downloads from earlier adjustments are dead weight now;
        in-flight ones stay so straggling joiners finish.
        """
        self.intake = None
        for joiner in joiners:
            self.offers.pop(joiner, None)
        for transfer_id in [
            t for t, d in self.downloads.items() if d.complete
        ]:
            del self.downloads[transfer_id]
        self.wake()

    def unfetched(self, plan: dict) -> "list[str]":
        """Lock held: the plan's joiners still missing (part of) its state."""
        snap = self.state.plan_snapshot
        download = self.downloads.get(snap["transfer_id"]) if snap else None
        return sorted(
            w for w in joiners_of(plan)
            if download is None or not download.fetched(w)
        )

    # -- serving: the joiners' STATE_FETCH --------------------------------------

    def handle_fetch(self, worker: str, payload: dict) -> dict:
        """A joiner's round probe, completion report, or chunk request."""
        with self.changed:
            download = self.downloads.get(payload.get("transfer_id"))
            if download is None:
                return {"ok": False, "reason": "unknown transfer"}
            if worker not in download.rounds:
                return {"ok": False, "reason": "not a planned joiner"}
            if payload.get("complete"):
                # The joiner holds the verified blob, wherever its chunks
                # came from; this report is what opens later rounds.
                download.done.add(worker)
                self.metrics.counter("net.shards.joins_completed").inc()
                self.wake()
                return {"ok": True}
            if not download.round_open(worker):
                # Earlier planner rounds are still copying: the AM holds
                # the request until this round opens or the hold lapses.
                return {"status": "pending"}
            if payload.get("probe"):
                return {"ok": True, "open": True}
            seq = payload.get("seq")
            if not isinstance(seq, int) or not 0 <= seq < download.total_chunks:
                return {"ok": False, "reason": f"bad seq {seq!r}"}
            self.metrics.counter("net.chunks.served").inc()
            return {
                "ok": True,
                "seq": seq,
                "data": download.chunk(seq),
                "digest": download.chunk_digest(seq),
            }
