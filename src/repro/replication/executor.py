"""Executing replication plans.

:class:`SimulatedReplicationExecutor` runs the planner's output on the
discrete-event kernel with one :class:`~repro.simcore.Resource` per
physical link/GPU claim, validating that the planner's round structure
is exactly what link contention permits and producing the timed
replication timeline used by the Fig. 15 benchmarks.  (Live jobs
replicate over the networked stack's chunked data plane.)
"""

from __future__ import annotations

import dataclasses
import typing

from ..simcore import Resource, Simulator
from ..topology import BandwidthProfile
from .planner import ReplicationPlan, Transfer, _transfer_claims


@dataclasses.dataclass(frozen=True)
class TransferRecord:
    """Timing of one executed transfer."""

    transfer: Transfer
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Wall time of this transfer."""
        return self.end - self.start


@dataclasses.dataclass(frozen=True)
class ReplicationTimeline:
    """The executed timeline of a whole plan."""

    records: typing.Tuple[TransferRecord, ...]

    @property
    def makespan(self) -> float:
        """End-to-end replication time."""
        return max((r.end for r in self.records), default=0.0)

    def concurrent_pairs(self) -> int:
        """Number of transfer pairs that overlapped in time."""
        count = 0
        for i, a in enumerate(self.records):
            for b in self.records[i + 1 :]:
                if a.start < b.end and b.start < a.end:
                    count += 1
        return count


class SimulatedReplicationExecutor:
    """Execute a plan on the DES kernel, honoring physical link claims."""

    def __init__(
        self,
        profile: "BandwidthProfile | None" = None,
        tracer: "typing.Any | None" = None,
    ):
        self.profile = profile or BandwidthProfile()
        #: Optional :class:`~repro.observability.Tracer`: each executed
        #: transfer lands as a ``replicate.transfer`` span (on the inner
        #: kernel's simulated time) tagged with its link class.
        self.tracer = tracer

    def execute(self, plan: ReplicationPlan) -> ReplicationTimeline:
        """Run every transfer as a process contending on shared links."""
        sim = Simulator()
        locks: typing.Dict[str, Resource] = {}
        records: typing.List[TransferRecord] = []

        def lock_for(claim: str) -> Resource:
            if claim not in locks:
                locks[claim] = Resource(sim, capacity=1)
            return locks[claim]

        def run_transfer(transfer: Transfer):
            # Acquire all claims in sorted order (avoids deadlock).
            claims = sorted(_transfer_claims(transfer))
            requests = []
            for claim in claims:
                request = lock_for(claim).request()
                yield request
                requests.append((claim, request))
            start = sim.now
            yield sim.timeout(transfer.duration(self.profile))
            records.append(TransferRecord(transfer, start, sim.now))
            if self.tracer is not None:
                self.tracer.add_span(
                    "replicate.transfer", start, sim.now,
                    track=transfer.target.name, cat="replicate",
                    source=transfer.source.name,
                    link=transfer.transport.value.upper(),
                    level=transfer.level.name,
                    gpu_bytes=transfer.gpu_bytes,
                    cpu_bytes=transfer.cpu_bytes,
                )
            for claim, request in requests:
                locks[claim].release(request)

        # Launch rounds in order; a transfer may only start once its
        # round's predecessor rounds have fully completed for chained
        # sources, which the claim locks already guarantee (the source GPU
        # is held while it receives state).  We additionally release each
        # round's processes in sequence to match the planner's in-turn
        # semantics for contended links.
        def run_round(round_transfers, after):
            if after is not None:
                yield after
            done = [sim.process(run_transfer(t)) for t in round_transfers]
            yield sim.all_of(done)

        previous = None
        for round_ in plan.rounds:
            previous = sim.process(run_round(round_, previous))
        if previous is not None:
            sim.run(until=previous)
        return ReplicationTimeline(records=tuple(records))

