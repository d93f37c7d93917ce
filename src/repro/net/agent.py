"""The worker agent: one training replica driven over a reliable link.

A :class:`WorkerAgent` is transport-agnostic — hand it any
:class:`~repro.net.transport.ReliableLink` (in-memory for tests, TCP for
real multi-process jobs) and it runs the full worker half of the
protocol: join-poll until admitted, train in lockstep with the group,
coordinate at boundaries, adopt adjustments (including uploading state
when elected, or departing when scaled in), and upload a final parameter
digest the AM uses to assert replica consistency.

Every replica reconstructs the dataset, model and loader locally from
the :class:`~repro.net.master_service.JobSpec` seed; the only training
state that crosses the wire is the adjustment-time snapshot and the
per-iteration gradients.

Gradient planes
---------------

Given a :class:`~repro.net.peers.PeerHost`, the agent also serves a
peer endpoint (advertised in its ``JOIN`` report) and averages
gradients over the decentralized ring (:mod:`repro.net.collective`)
once the AM has distributed a ring for the current generation — taking
the AM out of the per-iteration gradient path entirely.  Iterations the
ring cannot serve (pre-activation, mid-adjustment, or after a ring
abort that no peer survived) go through the star ``SYNC`` rendezvous,
whose AM-side reference averaging is bit-identical to the ring's.
"""

from __future__ import annotations

import threading
import time
import types
import typing

import numpy as np

from ..coordination.faults import ExponentialBackoff, SilentCrash
from ..coordination.hooks import DEFAULT_HOOKS, Hook, HookRegistry
from ..coordination.messages import MessageType
from ..core.hybrid_scaling import BatchSchedule
from ..training.dataloader import SerialLoader
from ..training.datasets import make_classification
from ..training.optim import MomentumSGD
from .chunks import ChunkedUploader, ShardedFetcher, ShardStore, StateBlob
from .collective import RingDegraded, RingMailbox, RingNode
from .master_service import JobSpec
from .telemetry import TelemetryShipper
from .transport import (
    ReliableLink,
    RemoteError,
    RequestTimeout,
    RetryableError,
    ServerCore,
    TransportClosed,
)
from .wire import params_digest


class JoinRejected(RuntimeError):
    """The agent gave up polling before the AM admitted it."""


class WorkerEvicted(RuntimeError):
    """A successor AM condemned this worker while it was unreachable.

    Raised out of re-enrollment: the lease-based eviction already
    removed this worker from the group (or is about to), so the only
    correct move is to stop training and file a final ``removed``
    report — fighting the eviction would fork the replica set.
    """


class WorkerAgent:
    """One data-parallel replica speaking the worker protocol.

    ``hooks`` (RegisterHook, Table III) add named extra state to the
    snapshot an adjustment replicates: each captures from and restores
    into ``agent.replica``, the namespace holding ``params``,
    ``optimizer`` and ``loader``.
    """

    def __init__(
        self,
        worker_id: str,
        link: ReliableLink,
        poll_interval: float = 0.05,
        join_timeout: float = 30.0,
        tracer: "typing.Any | None" = None,
        metrics: "typing.Any | None" = None,
        peer_host: "typing.Any | None" = None,
        peer_fault_plan: "typing.Any | None" = None,
        ring_fail_at: "typing.Collection[int]" = (),
        backoff: "ExponentialBackoff | None" = None,
        die_at_iteration: "int | None" = None,
        shard_die_after: "int | None" = None,
        hooks: typing.Sequence[Hook] = (),
    ):
        self.worker_id = worker_id
        self.hooks = HookRegistry()
        for hook in (*DEFAULT_HOOKS, *hooks):
            self.hooks.register(hook)
        #: this replica's training state, captured and restored through
        #: ``hooks`` (built at admission).
        self.replica = types.SimpleNamespace()
        self.link = link
        self.poll_interval = poll_interval
        self.join_timeout = join_timeout
        self.tracer = tracer
        self.metrics = metrics
        self.peer_host = peer_host
        self.peer_fault_plan = peer_fault_plan
        self.ring_fail_at = tuple(ring_fail_at)
        #: spacing between retries when the AM is unreachable or mid-
        #: failover (JOIN refused, requests timing out, fenced replies).
        self.backoff = backoff or ExponentialBackoff(
            base=0.05, factor=2.0, max_delay=1.0
        )
        #: chaos knob: raise :class:`SilentCrash` before computing this
        #: iteration — the thread-level analogue of ``kill -9``.
        self.die_at_iteration = die_at_iteration
        #: chaos knob for the sharded plane: hard-exit the process after
        #: serving this many shard chunks — a shard owner dying
        #: mid-fetch, from the joiner's point of view.
        self.shard_die_after = shard_die_after
        self.iterations_run = 0
        self.removed = False
        self.joined_at: "int | None" = None
        self.final_digest: "str | None" = None
        self.upload_summary: "dict | None" = None
        #: per-plane iteration counts, for tests and reporting.
        self.ring_iterations = 0
        self.star_iterations = 0
        self.ring_repairs = 0
        self.ring_fallbacks = 0
        #: failover bookkeeping, for tests and reporting.
        self.enrollments = 0
        self.stale_repairs = 0
        self.am_retries = 0
        self.peer_addr: "str | None" = None
        #: live telemetry shipper (built from the admitted JobSpec when
        #: ``spec.telemetry_interval > 0``).
        self.telemetry: "TelemetryShipper | None" = None
        #: the state this replica held when it left the job (scale-in or
        #: completion); ``ElasticJob.final_params`` reads its params.
        self.final_state: "dict | None" = None
        self._ring_node: "RingNode | None" = None
        self._mailbox: "RingMailbox | None" = None
        self._shard_store: "ShardStore | None" = None
        self._joined = False
        self._am_epoch: "int | None" = None
        self._enroll_needed = False
        self._enroll_lock = threading.Lock()
        self._generation = 0
        self._iteration = 0
        #: the AM as the chunk plane sees it: every upload and fetch
        #: request rides a takeover, as COORDINATE and SYNC do.
        self.am = types.SimpleNamespace(
            node_id=worker_id, request=self._request
        )

    # -- protocol steps ---------------------------------------------------------

    def _join(self) -> dict:
        """Ask ``JOIN`` until admitted (each ask is the worker-report).

        The AM holds an ask it cannot answer yet and replies
        ``pending`` when the hold lapses, so the next ask goes out at
        once.  The asks go through :meth:`_request`, so an AM that
        refuses connections or is mid-failover does not fail the join.
        """
        payload = {"peer": self.peer_addr} if self.peer_addr else {}
        deadline = time.monotonic() + self.join_timeout
        while True:
            reply = self._request(MessageType.JOIN, payload)
            if reply.get("status") in ("start", "join"):
                return reply
            if time.monotonic() >= deadline:
                raise JoinRejected(
                    f"{self.worker_id!r} not admitted within "
                    f"{self.join_timeout}s"
                )

    # -- failover: epoch tracking and re-enrollment -----------------------------

    def _enroll(self) -> None:
        """Introduce this worker to the (possibly new) AM incarnation."""
        reply = self.link.request(MessageType.ENROLL, {
            "generation": self._generation,
            "iteration": self._iteration,
            "ring_epoch": self._ring_epoch(),
            "peer": self.peer_addr,
        })
        self._am_epoch = reply.get("epoch", self._am_epoch)
        self._enroll_needed = False
        self.enrollments += 1
        if self.telemetry is not None:
            # A successor AM starts with an empty fleet collector (it is
            # deliberately not journaled); re-ship the full picture.
            self.telemetry.mark_full()
        if self.metrics is not None:
            self.metrics.counter("worker.enrollments").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "worker.enrolled", track=self.worker_id, cat="failover",
                epoch=self._am_epoch, status=reply.get("status"),
            )
        if reply.get("status") == "evicted":
            raise WorkerEvicted(
                f"{self.worker_id!r} was evicted by AM epoch "
                f"{self._am_epoch} (lease expired while unreachable)"
            )

    def _maybe_enroll(self) -> None:
        """Re-enroll when the AM's fencing epoch moved under us.

        The epoch arrives on the wire handshake (TCP welcome frame /
        the in-memory transport's live ``server_epoch``); a fenced
        reply (``am_superseded``) also forces one regardless of what
        the transport last saw.
        """
        if not self._joined:
            return
        # Pipelined chunk requests race here: one of them enrolls.
        with self._enroll_lock:
            epoch = getattr(self.link.transport, "server_epoch", None)
            if not self._enroll_needed and (
                epoch is None or epoch == self._am_epoch
            ):
                return
            self._enroll()

    def _request(
        self,
        msg_type: MessageType,
        payload: "dict | None" = None,
        ack_timeout: "float | None" = None,
    ) -> dict:
        """One protocol request that rides out an AM failover.

        Transport losses and fenced (``am_superseded``) rejections are
        retried — re-enrolling with the successor first — under bounded
        backoff until ``join_timeout`` passes.  Stale-barrier and
        superseded-generation rejections propagate: their recovery
        belongs to the caller.  :class:`WorkerEvicted` propagates too.
        """
        deadline = time.monotonic() + self.join_timeout
        attempt = 0
        while True:
            try:
                self._maybe_enroll()
                return self.link.request(
                    msg_type, payload, ack_timeout=ack_timeout
                )
            except RetryableError as exc:
                if exc.reason != "am_superseded":
                    raise
                # Before admission there is nothing to re-enroll: the
                # admitting AM's epoch arrives with its reply.
                self._enroll_needed = self._joined
            except (RequestTimeout, TransportClosed):
                pass
            if time.monotonic() >= deadline:
                raise RequestTimeout(
                    f"{msg_type.value} from {self.worker_id!r} could not "
                    f"reach a live AM within {self.join_timeout}s"
                )
            self.am_retries += 1
            if self.metrics is not None:
                self.metrics.counter("worker.am_retries").inc()
            self.backoff.wait(attempt)
            attempt += 1

    def _start_telemetry(self, spec: JobSpec, job: "str | None") -> None:
        """Begin live metric/trace shipping if the admitted spec asks.

        The job id learned at admission is stamped into every outgoing
        request's trace context (wire-level correlation) whether or not
        shipping is on; the shipper itself only runs when the AM-side
        ``telemetry_interval`` is positive — the knob rides the join
        reply, so enabling it on the AM enables every worker.
        """
        if job:
            self.link.trace_context["job"] = str(job)
        if spec.telemetry_interval <= 0 or self.telemetry is not None:
            return
        if self.tracer is None and self.metrics is None:
            return
        self.telemetry = TelemetryShipper(
            self.link,
            self.worker_id,
            job=str(job) if job else None,
            tracer=self.tracer,
            metrics=self.metrics,
            interval=spec.telemetry_interval,
        )
        self.telemetry.start()

    def _serve_peer(self) -> None:
        """Start this worker's peer endpoint before reporting in.

        The endpoint multiplexes two planes: ring traffic goes to the
        mailbox, ``STATE_FETCH`` goes to the shard store (this worker
        serving frozen snapshot shards to joiners).
        """
        if self.peer_host is None:
            return
        self._mailbox = RingMailbox(metrics=self.metrics)
        on_serve = None
        if self.shard_die_after is not None:
            limit = int(self.shard_die_after)

            def on_serve(count: int) -> None:
                if count >= limit:
                    # The process-level analogue of a SIGKILL mid-serve:
                    # joiners see the link drop and must re-plan.
                    import os
                    os._exit(9)

        self._shard_store = ShardStore(metrics=self.metrics, on_serve=on_serve)

        def handle(message):
            if message.msg_type is MessageType.STATE_FETCH:
                return self._shard_store.handle_fetch(
                    message.sender, message.payload
                )
            return self._mailbox.handle(message)

        core = ServerCore(
            handle,
            node_id=f"{self.worker_id}/peer",
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.peer_addr = self.peer_host.serve(core, self.worker_id)

    def _peer_connector(self, spec: JobSpec):
        """``connect(addr)`` onto a peer endpoint, or None without a mesh."""
        if self.peer_host is None:
            return None

        def connect(addr: str):
            return self.peer_host.connect(
                addr,
                node_id=self.worker_id,
                fault_plan=self.peer_fault_plan,
                ack_timeout=spec.ring_ack_timeout,
                tracer=self.tracer,
                metrics=self.metrics,
            )

        return connect

    def _build_ring_node(self, spec: JobSpec) -> None:
        if self.peer_host is None or not spec.ring_enabled:
            return
        self._ring_node = RingNode(
            self.worker_id,
            self._mailbox,
            self._peer_connector(spec),
            bucket_bytes=spec.ring_bucket_bytes,
            window=spec.ring_window,
            step_timeout=spec.ring_step_timeout,
            tracer=self.tracer,
            metrics=self.metrics,
            fail_at=self.ring_fail_at,
        )

    def _install_ring(self, ring: "dict | None") -> None:
        if ring and self._ring_node is not None:
            self._ring_node.install(ring)

    def _ring_epoch(self) -> int:
        """The generation of the currently installed ring (-1 if none)."""
        node = self._ring_node
        if node is None or node.ring is None:
            return -1
        return node.ring["epoch"]

    def _star_sync(
        self,
        spec: JobSpec,
        generation: int,
        iteration: int,
        grads: "dict | None",
        ring_fallback: bool = False,
    ) -> "dict | None":
        payload = {
            "generation": generation,
            "iteration": iteration,
            "grads": grads,
        }
        if ring_fallback:
            payload["ring_fallback"] = True
        try:
            mean = self._request(
                MessageType.SYNC, payload, ack_timeout=spec.sync_ack_timeout
            ).get("grads")
        except RetryableError as exc:
            if exc.reason != "stale_barrier":
                raise
            return self._stale_repair(spec, generation, iteration)
        if mean is not None and self._mailbox is not None:
            # Cache a private copy so a peer stranded by an AM failover
            # (its reply for this very barrier died with the old AM)
            # can repair the identical mean over the peer mesh.
            self._mailbox.record_mean(generation, iteration, {
                name: np.array(array) for name, array in mean.items()
            })
        return mean

    def _peer_mean(
        self, spec: JobSpec, generation: int, iteration: int,
        settle: bool,
    ) -> "tuple[str, dict] | None":
        """Poll every other ring member for this iteration's cached mean.

        Returns ``(peer, mean)`` — a private copy of the bit-exact mean —
        from the first peer reporting ``done``.  Unreachable peers count
        as unable to serve.  Gives up (None) at the allreduce timeout or,
        when ``settle``, as soon as no peer is still ``running``.
        """
        node = self._ring_node
        peers = [w for w in node.ring["order"] if w != self.worker_id]
        deadline = time.monotonic() + spec.allreduce_timeout
        while True:
            undecided = False
            for peer in peers:
                try:
                    reply = node.fetch_peer_state(peer, generation, iteration)
                except (OSError, RemoteError):
                    continue
                state = reply.get("state")
                if state == "done" and reply.get("grads") is not None:
                    return peer, {
                        name: np.array(array)
                        for name, array in reply["grads"].items()
                    }
                undecided = undecided or state == "running"
            if (settle and not undecided) or time.monotonic() >= deadline:
                return None
            time.sleep(self.poll_interval)

    def _stale_repair(
        self, spec: JobSpec, generation: int, iteration: int
    ) -> "dict | None":
        """Recover a mean whose barrier died with a failed AM.

        The group completed this barrier before the failover (that is
        what "stale" asserts), so every peer holds the bit-exact mean
        in its mailbox cache — and peers cannot advance more than one
        iteration (the next barrier needs this worker), so the cache
        cannot have been overwritten.  Star-only jobs without a peer
        mesh have nothing to repair from; that is a documented
        limitation of the failover path.
        """
        node = self._ring_node
        if node is None or node.ring is None:
            raise RequestTimeout(
                f"sync ({generation}, {iteration}) is stale and "
                f"{self.worker_id!r} has no peer mesh to repair from"
            )
        found = self._peer_mean(spec, generation, iteration, settle=False)
        if found is None:
            raise RequestTimeout(
                f"no peer served the mean for stale sync "
                f"({generation}, {iteration})"
            )
        peer, mean = found
        self.stale_repairs += 1
        if self.metrics is not None:
            self.metrics.counter("worker.stale_repairs").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "worker.stale_repair", track=self.worker_id,
                cat="failover", iteration=iteration, peer=peer,
            )
        return mean

    def _ring_recover(
        self,
        spec: JobSpec,
        generation: int,
        iteration: int,
        grads: "dict | None",
    ) -> "dict | None":
        """After a ring abort: repair from a completed peer, else star.

        Polls every other member's iteration state.  Any peer reporting
        ``done`` serves its cached (bit-exact) mean; the star retry only
        runs once *no* peer can still complete — peers still ``running``
        are given until the allreduce timeout, so a partial-star
        deadlock (some members at the AM barrier, others finishing the
        ring) cannot happen.

        A peer that never *began* this iteration's ring (``unknown``)
        is decisive, not undecided: under lockstep it is either headed
        to the star barrier itself (where it is waiting for us — so
        waiting for it here would deadlock against the barrier timeout)
        or still behind, in which case it will repair from the star
        mean we cache in the mailbox.  Waiting only helps for peers
        mid-ring.

        A star retry leaves the ring off for the rest of its generation
        (until the next ring is installed): no peer could complete this
        iteration, so a lost peer would cost every later one a full
        ``ring_step_timeout`` until its eviction commits.
        """
        found = self._peer_mean(spec, generation, iteration, settle=True)
        if found is not None:
            peer, mean = found
            self.ring_repairs += 1
            if self.metrics is not None:
                self.metrics.counter("net.allreduce.repairs").inc()
            if self.tracer is not None:
                self.tracer.instant(
                    "net.allreduce.repair", track=self.worker_id,
                    iteration=iteration, peer=peer,
                )
            return mean
        self.ring_fallbacks += 1
        self._ring_node.fallen_back = True
        return self._star_sync(
            spec, generation, iteration, grads, ring_fallback=True
        )

    def run(self) -> dict:
        """Execute the job to completion; returns a result summary."""
        self._serve_peer()
        try:
            return self._run()
        finally:
            if self.telemetry is not None:
                # Stop the shipper thread without flushing: the clean
                # exit path already flushed, and a crash (SilentCrash)
                # must not ship — a killed process could not either.
                self.telemetry.stop()
            if self._ring_node is not None:
                self._ring_node.close()
            if self.peer_host is not None and self.peer_addr is not None:
                self.peer_host.release(self.peer_addr)

    def _run(self) -> dict:
        admission = self._join()
        spec = JobSpec.from_payload(admission["spec"])
        group = list(admission["group"])
        generation = int(admission["generation"])
        start_iteration = int(admission["iteration"])
        self.joined_at = start_iteration
        self._joined = True
        self._am_epoch = admission.get("epoch")
        self._generation = generation
        self._iteration = start_iteration
        self._start_telemetry(spec, admission.get("job"))
        self._build_ring_node(spec)
        self._install_ring(admission.get("ring"))

        dataset = make_classification(
            train_size=spec.train_size,
            test_size=spec.test_size,
            input_dim=spec.input_dim,
            num_classes=spec.num_classes,
            seed=spec.seed,
        )
        architecture = spec.build_architecture()
        replica = self.replica
        replica.loader = SerialLoader(
            dataset_size=spec.train_size, seed=spec.seed
        )
        replica.optimizer = MomentumSGD(spec.base_lr, momentum=spec.momentum)
        replica.params = architecture.init(spec.seed)
        transfer = admission.get("state_transfer")
        if transfer:
            # The offer is a shard plan: fan in from every shard owner
            # concurrently over the peer mesh, or pull an owner-less
            # shard from the AM.  The AM gates rounds and backstops
            # failed owners.
            fetcher = ShardedFetcher(
                self.am,
                connect=self._peer_connector(spec),
                window=spec.replication_window,
                timeout=spec.allreduce_timeout,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            self.hooks.restore_all(replica, fetcher.fetch(transfer))
        schedule = BatchSchedule.from_payload(admission["schedule"])

        try:
            if self._train_loop(
                spec, group, generation, start_iteration, schedule,
                dataset, architecture,
            ):
                self.removed = True  # voluntary scale-in departure
        except WorkerEvicted:
            # A successor AM condemned us while we were unreachable;
            # stop cleanly and file a removed final report.
            self.removed = True
            if self.metrics is not None:
                self.metrics.counter("worker.evicted").inc()
            if self.tracer is not None:
                self.tracer.instant(
                    "worker.evicted", track=self.worker_id, cat="failover",
                    iteration=self._iteration,
                )

        # Keep the departing replica's state for ``final_params``.
        # References, not copies — nothing mutates them after the loop.
        self.final_state = self.hooks.capture_all(replica)

        if self.telemetry is not None:
            # Clean exit: drain the trace/metric backlog before the
            # final report so the AM's fleet view includes our last
            # iterations (the final spans above are closed by now).
            self.telemetry.flush()
        self.final_digest = params_digest(replica.params)
        self._request(
            MessageType.STATE_UPLOAD,
            {
                "final": True,
                "iteration": self._iteration,
                "digest": self.final_digest,
                "removed": self.removed,
            },
        )
        return {
            "worker": self.worker_id,
            "iterations_run": self.iterations_run,
            "joined_at": self.joined_at,
            "removed": self.removed,
            "digest": self.final_digest,
            "ring_iterations": self.ring_iterations,
            "star_iterations": self.star_iterations,
            "ring_repairs": self.ring_repairs,
            "ring_fallbacks": self.ring_fallbacks,
        }

    def _train_loop(
        self,
        spec: JobSpec,
        group: "list[str]",
        generation: int,
        start_iteration: int,
        schedule: BatchSchedule,
        dataset,
        architecture,
    ) -> bool:
        """The lockstep training loop; returns True if scaled out."""
        params = self.replica.params
        loader, optimizer = self.replica.loader, self.replica.optimizer
        iteration = start_iteration
        while iteration < spec.iterations:
            self._iteration = iteration
            # Boundary coordination — except at the join iteration: the
            # adjustment that admitted this worker commits *at* that
            # boundary, and the survivors' directives drive it.
            at_boundary = iteration % spec.coordination_interval == 0
            if at_boundary and iteration != start_iteration:
                directive = self._request(
                    MessageType.COORDINATE,
                    {
                        "iteration": iteration,
                        "ring_epoch": self._ring_epoch(),
                    },
                )
                self._install_ring(directive.get("ring"))
                if directive["kind"] == "adjust":
                    shard_spec = directive.get("shards")
                    blob = None
                    if (
                        shard_spec
                        and self._shard_store is not None
                        and self.worker_id in shard_spec.get("owners", ())
                    ):
                        # Elected shard owner: freeze the (bit-identical)
                        # snapshot blob under the plan's deterministic
                        # transfer id and serve it from the peer thread
                        # while training continues.  Safe to encode here:
                        # training is paused at this boundary, and
                        # ``register`` copies the bytes out of the views.
                        blob = StateBlob.encode(
                            self.hooks.capture_all(self.replica),
                            chunk_bytes=spec.chunk_bytes,
                        )
                        self._shard_store.register(
                            shard_spec["transfer_id"], blob
                        )
                    if directive.get("upload"):
                        # Stream the snapshot through the chunked data
                        # plane: the blob views the live tensors, which
                        # is safe because training is paused at this
                        # boundary until the upload finishes.  An owner
                        # uploads the blob it just froze: one encode.
                        uploader = ChunkedUploader(
                            self.am,
                            chunk_bytes=spec.chunk_bytes,
                            window=spec.replication_window,
                            tracer=self.tracer,
                            metrics=self.metrics,
                        )
                        self.upload_summary = uploader.upload(
                            blob if blob is not None
                            else self.hooks.capture_all(self.replica),
                            transfer_id=(
                                shard_spec["transfer_id"]
                                if shard_spec else None
                            ),
                            context={"iteration": iteration},
                        )
                    group[:] = directive["group"]
                    generation = int(directive["generation"])
                    self._generation = generation
                    schedule = BatchSchedule.from_payload(
                        directive["schedule"]
                    )
                    if self.worker_id not in group:
                        return True

            if (
                self.die_at_iteration is not None
                and iteration >= self.die_at_iteration
            ):
                raise SilentCrash(
                    f"{self.worker_id!r} killed at iteration {iteration}"
                )
            span = None
            if self.tracer is not None:
                span = self.tracer.begin(
                    "worker.iteration", track=self.worker_id, cat="train",
                    iteration=iteration,
                )
            if spec.iteration_sleep:
                time.sleep(spec.iteration_sleep)
            rank = group.index(self.worker_id)
            shards = loader.next_iteration(
                len(group), schedule.per_worker_batch(len(group))
            )
            indices = shards[rank]
            grads = None
            if indices.size:
                _, grads = architecture.loss_and_gradients(
                    params,
                    dataset.train_x[indices],
                    dataset.train_y[indices],
                )
            node = self._ring_node
            # The final iteration always rides the star: it doubles as
            # the job's closing barrier, so no replica can exit while a
            # degraded peer still needs a completer's cached mean.
            if (
                node is not None
                and node.active(generation, iteration)
                and iteration + 1 < spec.iterations
            ):
                # Ring members always contribute concretely — an empty
                # shard becomes explicit zeros so every rank's layout
                # (and the /N divisor) agrees.
                ring_grads = grads or {
                    name: np.zeros_like(array)
                    for name, array in params.items()
                }
                try:
                    averaged = node.allreduce(
                        generation, iteration, ring_grads
                    )
                    self.ring_iterations += 1
                except RingDegraded:
                    averaged = self._ring_recover(
                        spec, generation, iteration, grads
                    )
            else:
                averaged = self._star_sync(
                    spec, generation, iteration, grads
                )
                self.star_iterations += 1
            if averaged:
                optimizer.lr = schedule.lr_at(iteration)
                optimizer.step(params, averaged)
            if self.tracer is not None:
                self.tracer.end(span)
            self.iterations_run += 1
            iteration += 1
            self._iteration = iteration
        return False
