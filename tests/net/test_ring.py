"""The ring gradient plane: layout, bit-identity, degradation, e2e.

Three layers of coverage:

* pure geometry — partitions/buckets are an exact, element-aligned,
  deterministic cover of the flattened parameter space;
* the collective — N distributed :class:`RingNode`\\ s over real peer
  links (in-memory and loopback TCP) produce means *bit-identical* to
  :func:`ring_reference_average`, which is what the AM serves on the
  star path, so the two planes can never diverge;
* elastic jobs — ring-enabled jobs (including scale-up chaos and forced
  ring aborts) finish with identical digests while the AM stays out of
  the steady-state gradient path.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.coordination.faults import FaultPlan
from repro.coordination.messages import MessageType
from repro.net import (
    JobSpec,
    MemoryPeerHost,
    NetworkedApplicationMaster,
    RingDegraded,
    RingLayout,
    RingMailbox,
    RingNode,
    ShmPeerHost,
    TcpPeerHost,
    TransportClosed,
    WorkerAgent,
    memory_link,
    ring_reference_average,
    tcp_link,
)
from repro.net import collective, wire
from repro.net.collective import Slice, bucketize, partition_layout
from repro.net.shm import ShmServer, shm_link
from repro.net.tcp import TcpServer
from repro.net.transport import ServerCore
from repro.observability import MetricRegistry, Tracer


def random_grads(seed, shapes=None, dtype=np.float64):
    rng = np.random.default_rng(seed)
    shapes = shapes or {"w1": (7, 5), "b1": (5,), "w2": (5, 3), "b2": (3,)}
    return {
        name: rng.standard_normal(shape).astype(dtype)
        for name, shape in shapes.items()
    }


class TestLayout:
    def test_partitions_cover_every_element_exactly_once(self):
        items = [("a", 13, 8), ("b", 1, 8), ("c", 29, 4), ("d", 3, 8)]
        for parts in (1, 2, 3, 5, 8):
            partitions = partition_layout(items, parts)
            assert len(partitions) == parts
            seen = {name: [] for name, _, _ in items}
            for slices in partitions:
                for piece in slices:
                    seen[piece.name].append((piece.start, piece.stop))
            for name, elements, _ in items:
                ranges = sorted(seen[name])
                covered = 0
                for start, stop in ranges:
                    assert start == covered, (name, ranges)
                    covered = stop
                assert covered == elements, (name, ranges)

    def test_partitions_are_byte_balanced(self):
        items = [("a", 1000, 4), ("b", 1000, 8)]
        total = sum(e * i for _, e, i in items)
        parts = 4
        partitions = partition_layout(items, parts)
        sizes = [
            sum(
                piece.elements * next(i for n, _, i in items if n == piece.name)
                for piece in slices
            )
            for slices in partitions
        ]
        assert sum(sizes) == total
        # Element alignment can shift at most one element per boundary.
        assert max(sizes) - min(sizes) <= 2 * 8

    def test_empty_and_degenerate_layouts(self):
        assert partition_layout([], 3) == [[], [], []]
        assert partition_layout([("a", 0, 8)], 2) == [[], []]

    def test_bucketize_respects_budget_and_preserves_elements(self):
        slices = [Slice("a", 0, 100), Slice("b", 0, 7)]
        itemsizes = {"a": 8, "b": 8}
        buckets = bucketize(slices, itemsizes, bucket_bytes=64)
        for bucket in buckets:
            nbytes = sum(p.elements * itemsizes[p.name] for p in bucket)
            assert nbytes <= 64
        flat = [(p.name, p.start, p.stop) for b in buckets for p in b]
        covered = {"a": 0, "b": 0}
        for name, start, stop in flat:
            assert start == covered[name]
            covered[name] = stop
        assert covered == {"a": 100, "b": 7}

    def test_bucketize_huge_element_still_travels(self):
        buckets = bucketize([Slice("a", 0, 3)], {"a": 1024}, bucket_bytes=16)
        assert [len(b) for b in buckets] == [1, 1, 1]

    def test_views_are_zero_copy(self):
        grads = random_grads(0)
        layout = RingLayout(grads, members=2)
        bucket = layout.buckets[0][0]
        views = layout.views(grads, bucket)
        views[0][0] = 123.0
        name = bucket[0].name
        assert RingLayout.flat(grads[name])[bucket[0].start] == 123.0

    def test_layout_is_deterministic_across_instances(self):
        a = RingLayout(random_grads(1), members=3, bucket_bytes=128)
        b = RingLayout(random_grads(2), members=3, bucket_bytes=128)
        assert a.partitions == b.partitions
        assert a.buckets == b.buckets


class TestReferenceAverage:
    def test_matches_naive_mean_numerically(self):
        contributions = [random_grads(seed) for seed in range(4)]
        reference = ring_reference_average(contributions)
        for name in contributions[0]:
            naive = sum(c[name] for c in contributions) / 4
            assert np.allclose(reference[name], naive, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ring_reference_average([])

    def test_single_member_is_identity_divided_by_one(self):
        grads = random_grads(3)
        reference = ring_reference_average([grads])
        for name in grads:
            assert np.array_equal(reference[name], grads[name])

    def test_association_order_is_the_ring_arc(self):
        # Partition p's arc must start at rank p: with values chosen to
        # expose float non-associativity, the reference must equal the
        # hand-computed arc, not any other association.
        a = {"x": np.array([1e16, 1e16])}
        b = {"x": np.array([1.0, 1.0])}
        c = {"x": np.array([-1e16, -1e16])}
        reference = ring_reference_average([a, b, c])
        layout = RingLayout(a, 3, bucket_bytes=2**62)
        expected = np.empty(2)
        order = [a, b, c]
        for part, slices in enumerate(layout.partitions):
            for piece in slices:
                acc = np.array(order[part]["x"][piece.start:piece.stop])
                for hop in (1, 2):
                    acc = np.add(
                        acc, order[(part + hop) % 3]["x"][piece.start:piece.stop]
                    )
                expected[piece.start:piece.stop] = np.true_divide(acc, 3)
        assert np.array_equal(reference["x"], expected)


class Mesh:
    """N ring nodes over real peer links (no AM involved)."""

    def __init__(self, transport, workers, fault_plans=None, **node_kwargs):
        #: per worker, shared by its mailbox and its node.
        self.metrics = {w: MetricRegistry() for w in workers}
        self.host = {
            "memory": MemoryPeerHost, "tcp": TcpPeerHost,
            "shm": lambda: ShmPeerHost(capacity=1 << 20),
        }[transport]()
        fault_plans = fault_plans or {}
        self.nodes = {}
        addrs = {}
        cores = {}
        for worker in workers:
            mailbox = RingMailbox(metrics=self.metrics[worker])
            core = ServerCore(mailbox.handle, node_id=f"{worker}/peer")
            cores[worker] = core
            addrs[worker] = self.host.serve(core, worker)
            plan = fault_plans.get(worker)
            connect = (
                lambda addr, w=worker, p=plan: self.host.connect(
                    addr, node_id=w, fault_plan=p, ack_timeout=0.2,
                )
            )
            self.nodes[worker] = RingNode(
                worker, mailbox, connect, metrics=self.metrics[worker],
                **node_kwargs
            )
        self.cores = cores
        ring = {
            "epoch": 0, "order": list(workers), "peers": addrs,
            "active_from": 0,
        }
        for node in self.nodes.values():
            node.install(ring)

    def allreduce_all(self, grads_by_worker, iteration=0, generation=0):
        results, errors = {}, {}

        def run(worker):
            try:
                results[worker] = self.nodes[worker].allreduce(
                    generation, iteration, grads_by_worker[worker]
                )
            except Exception as exc:
                errors[worker] = exc

        threads = [
            threading.Thread(target=run, args=(w,), daemon=True)
            for w in grads_by_worker
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert all(not t.is_alive() for t in threads), "ring hung"
        return results, errors

    def close(self):
        for node in self.nodes.values():
            node.close()
        self.host.close()


@pytest.fixture(params=["memory", "tcp"])
def transport(request):
    return request.param


class CountingJson:
    """``wire.json``, counting what crosses it."""

    def __init__(self):
        self.dumps_calls = self.loads_calls = 0

    def dumps(self, *args, **kwargs):
        self.dumps_calls += 1
        return json.dumps(*args, **kwargs)

    def loads(self, *args, **kwargs):
        self.loads_calls += 1
        return json.loads(*args, **kwargs)


class TestDistributedRing:
    def test_bit_identical_to_reference_average(self, transport):
        """The acceptance criterion: every rank's distributed mean is
        bit-for-bit the reference the AM's star path serves."""
        workers = ["w0", "w1", "w2"]
        grads = {w: random_grads(i) for i, w in enumerate(workers)}
        mesh = Mesh(transport, workers, bucket_bytes=256, step_timeout=10.0)
        try:
            results, errors = mesh.allreduce_all(grads)
        finally:
            mesh.close()
        assert not errors, errors
        reference = ring_reference_average([grads[w] for w in workers])
        for worker in workers:
            for name in reference:
                assert results[worker][name].tobytes() == (
                    reference[name].tobytes()
                ), (worker, name)

    def test_two_members_and_many_buckets(self, transport):
        workers = ["a", "b"]
        shapes = {"big": (900,), "small": (3,)}
        grads = {
            w: random_grads(i, shapes=shapes) for i, w in enumerate(workers)
        }
        mesh = Mesh(
            transport, workers, bucket_bytes=128, window=2,
            step_timeout=10.0,
        )
        try:
            results, errors = mesh.allreduce_all(grads)
        finally:
            mesh.close()
        assert not errors
        reference = ring_reference_average([grads[w] for w in workers])
        for worker in workers:
            for name in reference:
                assert np.array_equal(results[worker][name], reference[name])

    def test_pristine_inputs_survive_the_collective(self, transport):
        workers = ["a", "b"]
        grads = {w: random_grads(i) for i, w in enumerate(workers)}
        originals = {
            w: {n: a.copy() for n, a in g.items()}
            for w, g in grads.items()
        }
        mesh = Mesh(transport, workers, step_timeout=10.0)
        try:
            results, errors = mesh.allreduce_all(grads)
        finally:
            mesh.close()
        assert not errors
        # The star fallback depends on the caller's grads being intact.
        for worker in workers:
            for name in originals[worker]:
                assert np.array_equal(
                    grads[worker][name], originals[worker][name]
                )
                assert not np.array_equal(
                    results[worker][name], originals[worker][name]
                )

    def test_chaos_on_peer_links_still_bit_identical(self, transport):
        """Drops + duplicates + a connection reset on one member's peer
        links: the reliable-link recipe absorbs all of it."""
        workers = ["w0", "w1", "w2"]
        grads = {w: random_grads(10 + i) for i, w in enumerate(workers)}
        plans = {"w1": FaultPlan(drop_every=5, duplicate_every=3,
                                 connection_resets=(4,))}
        mesh = Mesh(
            transport, workers, fault_plans=plans, bucket_bytes=256,
            step_timeout=10.0,
        )
        try:
            results, errors = mesh.allreduce_all(grads)
        finally:
            mesh.close()
        assert not errors, errors
        reference = ring_reference_average([grads[w] for w in workers])
        for worker in workers:
            for name in reference:
                assert np.array_equal(results[worker][name], reference[name])
        # Exactly-once on the peer plane: every segment executed once
        # per (sender, type) despite the duplicates.
        duplicates = sum(c.duplicates for c in mesh.cores.values())
        assert duplicates > 0


    @pytest.mark.parametrize("peer", ["memory", "tcp", "shm"])
    @pytest.mark.parametrize("budget", [64, 256, "partition", "default"])
    @pytest.mark.parametrize("members", [2, 3, 4, 5])
    def test_pipeline_bit_identical_at_every_geometry(
        self, members, budget, peer
    ):
        """Multi-bucket partitions (a bucket is forwarded while the rest
        of its partition is still arriving) and one-bucket partitions
        (one segment per hop) both end on the reference bits."""
        workers = [f"w{i}" for i in range(members)]
        shapes = {"w1": (31, 7), "b1": (7,), "w2": (7, 3), "b2": (3,)}
        grads = {
            w: random_grads(20 + i, shapes=shapes)
            for i, w in enumerate(workers)
        }
        originals = {
            w: {n: a.copy() for n, a in g.items()} for w, g in grads.items()
        }
        total = sum(a.nbytes for a in grads[workers[0]].values())
        kwargs = {} if budget == "default" else {
            "bucket_bytes": total if budget == "partition" else budget
        }
        mesh = Mesh(peer, workers, step_timeout=10.0, **kwargs)
        try:
            results, errors = mesh.allreduce_all(grads)
        finally:
            mesh.close()
        assert not errors, errors
        reference = ring_reference_average([grads[w] for w in workers])
        for worker in workers:
            for name in reference:
                assert results[worker][name].tobytes() == (
                    reference[name].tobytes()
                ), (worker, name)
                assert np.array_equal(
                    grads[worker][name], originals[worker][name]
                )
        layout = RingLayout(grads[workers[0]], members, **kwargs)
        per_hop = [len(buckets) for buckets in layout.buckets]
        if isinstance(budget, str):
            assert per_hop == [1] * members
        else:
            assert max(per_hop) > 1
        for rank, worker in enumerate(workers):
            # Hop h carries partition (rank - h): exactly-once per bucket.
            expected = sum(
                per_hop[(rank - hop) % members]
                for hop in range(2 * (members - 1))
            )
            successor = mesh.cores[workers[(rank + 1) % members]]
            assert successor.executions[(worker, "ring_segment")] == expected

    @pytest.mark.parametrize("members", [3, 4])
    @pytest.mark.parametrize("transport", ["memory", "tcp", "shm"])
    def test_segment_counters_are_exact_per_member_iteration(
        self, transport, members, monkeypatch
    ):
        """The program's own counters, booked where a segment is written
        and where it is deposited: 2·(N−1)·buckets of each per
        member-iteration, posts and confirming requests alike — and of
        those, only the window overflow and the last were requests.
        Where there are frames every segment left lean: no JSON was
        encoded or decoded for one, only for the requests' replies."""
        workers = [f"w{i}" for i in range(members)]
        shapes = {"w": (members * 64,)}  # equal partitions
        grads = {
            w: random_grads(30 + i, shapes=shapes)
            for i, w in enumerate(workers)
        }
        nbytes = grads[workers[0]]["w"].nbytes
        buckets = 2  # per partition
        mesh = Mesh(
            transport, workers, step_timeout=10.0,
            bucket_bytes=nbytes // members // buckets, window=4,
        )
        sent = {w: {"post": 0, "request": 0} for w in workers}
        iterations = 3
        try:
            for worker, node in mesh.nodes.items():
                link = node._link_to(workers[
                    (workers.index(worker) + 1) % members
                ])
                for how in ("post", "request"):
                    def counted(*args, _inner=getattr(link, how),
                                _tally=sent[worker], _how=how, **kwargs):
                        _tally[_how] += 1
                        return _inner(*args, **kwargs)
                    setattr(link, how, counted)
            # Every link is dialled: from here on only segments and
            # their replies can reach the wire's JSON.
            json_calls = CountingJson()
            monkeypatch.setattr(wire, "json", json_calls)
            for iteration in range(iterations):
                _, errors = mesh.allreduce_all(grads, iteration=iteration)
                assert not errors, errors
        finally:
            mesh.close()
        segments = 2 * (members - 1) * buckets
        framed = transport != "memory"
        replies = sum(tally["request"] for tally in sent.values())
        assert (json_calls.dumps_calls, json_calls.loads_calls) == (
            (replies, replies) if framed else (0, 0)
        )
        for worker in workers:
            counters = mesh.metrics[worker]
            for name, expected in (
                ("segments_sent", segments),
                ("segments_received", segments),
                ("bytes_sent", segments * nbytes // members // buckets),
                ("bytes_received", segments * nbytes // members // buckets),
            ):
                assert counters.counter(
                    f"net.allreduce.{name}"
                ).value == expected * iterations, (worker, name)
            assert counters.counter("net.allreduce.send_failures").value == 0
            # window = 4: every fifth segment and the last are requests.
            requests = len(range(4, segments, 5)) + (segments % 5 != 0)
            assert sent[worker] == {
                "post": (segments - requests) * iterations,
                "request": requests * iterations,
            }

    def test_layout_built_once_per_geometry(self, monkeypatch):
        built = []

        class CountingLayout(RingLayout):
            def __init__(self, params, members, *args, **kwargs):
                built.append(members)
                super().__init__(params, members, *args, **kwargs)

        workers = ["w0", "w1", "w2"]
        grads = {w: random_grads(i) for i, w in enumerate(workers)}
        mesh = Mesh("memory", workers, step_timeout=10.0)
        monkeypatch.setattr(collective, "RingLayout", CountingLayout)
        try:
            for iteration in range(3):
                _, errors = mesh.allreduce_all(grads, iteration=iteration)
                assert not errors, errors
            assert built == [3, 3, 3]  # once per node, not per call
            # A membership change is a new geometry: rebuilt, once.
            pair = ["w0", "w1"]
            ring = {**mesh.nodes["w0"].ring, "epoch": 1, "order": pair}
            for worker in pair:
                mesh.nodes[worker].install(ring)
            for iteration in range(2):
                results, errors = mesh.allreduce_all(
                    {w: grads[w] for w in pair}, iteration, generation=1
                )
                assert not errors, errors
            assert built == [3, 3, 3, 2, 2]
        finally:
            mesh.close()
        monkeypatch.undo()
        reference = ring_reference_average([grads[w] for w in pair])
        for worker in pair:
            for name in reference:
                assert np.array_equal(results[worker][name], reference[name])


class TestLeanSegments:
    """Which form a segment leaves in, and who owns it on arrival."""

    @pytest.mark.parametrize("transport", ["tcp", "shm"])
    def test_extra_trace_context_is_refused_at_the_sender_and_lean_is_traced(
        self, transport
    ):
        """A link stamping more than node/epoch/sent (the AM link's
        ``job``) has a context the lean header cannot carry, and a ring
        segment has no other frame: it is a ``WireError`` at the sender,
        the connection untouched.  A plain peer link's segment goes
        lean, and ``net.recv`` still learns the sender's epoch."""
        tracer = Tracer(process="peer")
        mailbox = RingMailbox()
        core = ServerCore(mailbox.handle, node_id="w1/peer", tracer=tracer)
        if transport == "tcp":
            server = TcpServer(core, tracer=tracer).start()
            link, pipe = tcp_link(
                server.host, server.port, "w0", heartbeat_interval=None
            )
        else:
            server = ShmServer(core, tracer=tracer).start()
            link, pipe = shm_link(server.path, "w0")
        payload = dict(
            generation=0, iteration=0, phase="rs", step=0,
            data=[np.arange(8.0)],
        )
        try:
            mailbox.begin(0, 0)
            link.request(MessageType.RING_SEGMENT, dict(payload, bucket=0))
            link.trace_context["job"] = "j1"
            with pytest.raises(wire.WireError, match="ring segment"):
                link.request(MessageType.RING_SEGMENT, dict(payload, bucket=1))
            assert pipe.connected and pipe.reconnects == 0
        finally:
            link.close()
            server.close()
        events = tracer.to_events()
        (accept,) = [e for e in events if e["name"] == "net.accept"]
        assert accept["args"]["peer"] == "w0"
        (lean_recv,) = [e["args"] for e in events if e["name"] == "net.recv"]
        assert lean_recv["sender_epoch"] == link._factory.epoch
        assert "job" not in lean_recv
        (array,) = mailbox.collect((0, 0, "rs", 0, 0), 1.0)
        np.testing.assert_array_equal(array, np.arange(8.0))

    @pytest.mark.parametrize("transport", ["memory", "tcp", "shm"])
    def test_mailbox_copies_exactly_what_is_borrowed(self, transport):
        """Memory and shm hand the handler memory somebody else will
        write again — the sender's scratch, a ring slot — so the mailbox
        copies; a socket read the bucket into a buffer of its own, and
        copying that again is what this PR removed."""
        mesh = Mesh(transport, ["w0", "w1"], step_timeout=10.0)
        scratch = np.arange(32768.0)  # four of these lap the 1 MiB shm ring
        payload = dict(
            generation=0, iteration=0, phase="rs", step=0,
            data=[scratch],
        )
        try:
            link = mesh.nodes["w0"]._link_to("w1")
            mailbox = mesh.nodes["w1"].mailbox
            mailbox.begin(0, 0)
            link.request(MessageType.RING_SEGMENT, dict(payload, bucket=0))
            scratch += 1.0  # the sender moves on
            # ...and so does the pipe: on shm the next records land in
            # (or past) the first one's slot.
            for bucket in range(1, 5):
                link.request(
                    MessageType.RING_SEGMENT, dict(payload, bucket=bucket)
                )
            (kept,) = mailbox.collect((0, 0, "rs", 0, 0), 1.0)
        finally:
            mesh.close()
        np.testing.assert_array_equal(kept, np.arange(32768.0))
        assert kept.flags.owndata == (transport != "tcp")


class TestDrainBeforeReturn:
    """No send outlives the call that issued it (ROADMAP churn defects
    2 and 3): a faster ring only makes the leave race more likely."""

    def test_allreduce_returns_only_after_its_last_send_is_acknowledged(
        self
    ):
        workers = ["w0", "w1", "w2"]
        grads = {w: random_grads(i) for i, w in enumerate(workers)}
        posted = 2 * (len(workers) - 1)  # one bucket per hop
        mesh = Mesh(
            "memory", workers, step_timeout=10.0,
            # w0's completion does not depend on its own last send (the
            # final all-gather hop to w1): hold exactly that one.
            fault_plans={"w0": FaultPlan(net_delays={posted: 0.3})},
        )
        executed_at_return = {}
        allreduce = mesh.nodes["w0"].allreduce

        def spy(*args):
            mean = allreduce(*args)
            executed_at_return["w1"] = mesh.cores["w1"].executions.get(
                ("w0", "ring_segment"), 0
            )
            return mean

        mesh.nodes["w0"].allreduce = spy
        try:
            results, errors = mesh.allreduce_all(grads)
        finally:
            mesh.close()
        assert not errors, errors
        assert executed_at_return["w1"] == posted
        reference = ring_reference_average([grads[w] for w in workers])
        for worker in workers:
            for name in reference:
                assert np.array_equal(results[worker][name], reference[name])

    def test_close_leaves_no_ring_thread_behind(self, transport):
        """The node owns no thread: segments are written by whoever
        calls ``allreduce``, so no ``ring-*`` thread exists at any point
        of a run — sampled at every send and every receive."""
        workers = ["drain0", "drain1", "drain2"]
        seen = set()

        def sample():
            seen.update(
                t.name for t in threading.enumerate()
                if t.name.startswith("ring-")
            )

        grads = {w: random_grads(i) for i, w in enumerate(workers)}
        mesh = Mesh(transport, workers, bucket_bytes=64, step_timeout=10.0)
        for node in mesh.nodes.values():
            for name in ("_send", "_receive"):
                def spied(*args, _inner=getattr(node, name), **kwargs):
                    sample()
                    return _inner(*args, **kwargs)
                setattr(node, name, spied)
        try:
            for iteration in range(2):
                sample()
                _, errors = mesh.allreduce_all(grads, iteration=iteration)
                assert not errors, errors
                sample()
        finally:
            mesh.close()
        sample()
        assert seen == set()
        # ...and close() leaves no open link behind either.
        for node in mesh.nodes.values():
            assert node._links == {}


class TestDegradation:
    def test_injected_failure_degrades_and_peers_observe_it(self):
        workers = ["w0", "w1"]
        grads = {w: random_grads(i) for i, w in enumerate(workers)}
        mesh = Mesh(
            "memory", workers, step_timeout=0.3,
        )
        mesh.nodes["w0"].fail_at = frozenset({0})
        try:
            results, errors = mesh.allreduce_all(grads)
            assert isinstance(errors.get("w0"), RingDegraded)
            # w1 cannot finish either (its only peer aborted) and its
            # mark is terminal: both probes converge on "degraded".
            assert isinstance(errors.get("w1"), RingDegraded)
            for observer, observed in (("w0", "w1"), ("w1", "w0")):
                reply = mesh.nodes[observer].fetch_peer_state(
                    observed, 0, 0
                )
                assert reply["state"] == "degraded"
        finally:
            mesh.close()

    def test_completed_peer_serves_cached_mean(self):
        workers = ["w0", "w1"]
        grads = {w: random_grads(i) for i, w in enumerate(workers)}
        mesh = Mesh("memory", workers, step_timeout=10.0)
        try:
            results, errors = mesh.allreduce_all(grads)
            assert not errors
            reply = mesh.nodes["w0"].fetch_peer_state("w1", 0, 0)
            assert reply["state"] == "done"
            for name in results["w1"]:
                assert np.array_equal(reply["grads"][name],
                                      results["w1"][name])
        finally:
            mesh.close()

    def test_strikes_deactivate_the_ring(self):
        mailbox = RingMailbox()
        node = RingNode("w0", mailbox, connect=lambda addr: None,
                        step_timeout=0.01)
        node.install({"epoch": 0, "order": ["w0", "w1"],
                      "peers": {"w0": "mem://w0", "w1": "mem://w1"},
                      "active_from": 0})
        node.fail_at = frozenset(range(100))
        grads = random_grads(0)
        from repro.net.collective import MAX_RING_STRIKES

        for iteration in range(MAX_RING_STRIKES):
            assert node.active(0, iteration)
            with pytest.raises(RingDegraded):
                node.allreduce(0, iteration, grads)
        assert not node.active(0, MAX_RING_STRIKES)
        # A fresh install (new adjustment) re-arms it.
        node.install({"epoch": 1, "order": ["w0", "w1"],
                      "peers": {"w0": "mem://w0", "w1": "mem://w1"},
                      "active_from": 0})
        assert node.active(1, 0)

    def test_activation_gates(self):
        mailbox = RingMailbox()
        node = RingNode("w0", mailbox, connect=lambda addr: None)
        assert not node.active(0, 0)  # nothing installed
        node.install({"epoch": 2, "order": ["w0", "w1"],
                      "peers": {"w0": "a", "w1": "b"}, "active_from": 9})
        assert not node.active(1, 9)   # wrong generation
        assert not node.active(2, 8)   # before activation boundary
        assert node.active(2, 9)
        node.install({"epoch": 2, "order": ["w0"], "peers": {"w0": "a"},
                      "active_from": 9})
        assert not node.active(2, 9)   # singleton ring is pointless
        node.install({"epoch": 2, "order": ["w1", "w2"],
                      "peers": {"w1": "a", "w2": "b"}, "active_from": 9})
        assert not node.active(2, 9)   # not a member

    @pytest.mark.parametrize("failure,falls_back", [
        (TransportClosed("no peer serving mem://w1"), True),
        (TypeError("connect() got an unexpected keyword"), False),
    ], ids=["link-error", "bug"])
    def test_only_link_errors_send_a_probe_to_the_star(
        self, failure, falls_back
    ):
        """A probe the link fails counts as an unreachable peer: it is
        suspected and the iteration retries through the star.  Anything
        else is a bug and propagates out of the recovery loop instead of
        quietly turning into a star iteration."""
        star = []

        class StarLink:
            transport = None

            def request(self, msg_type, payload=None, ack_timeout=None):
                star.append(msg_type)
                return {"grads": payload["grads"]}

        def connect(addr):
            raise failure

        agent = WorkerAgent("w0", StarLink())
        node = agent._ring_node = RingNode("w0", RingMailbox(), connect)
        node.install({"epoch": 0, "order": ["w0", "w1"],
                      "peers": {"w0": "mem://w0", "w1": "mem://w1"},
                      "active_from": 0})
        spec = JobSpec(allreduce_timeout=1.0)
        grads = random_grads(0)
        if falls_back:
            assert agent._ring_recover(spec, 0, 0, grads) is grads
            assert star == [MessageType.SYNC]
            assert node._suspects == {"w1"}
        else:
            with pytest.raises(TypeError):
                agent._ring_recover(spec, 0, 0, grads)
            assert star == [] and node._suspects == set()


class RingHarness:
    """Elastic-job harness with a live peer mesh (threads, both planes)."""

    def __init__(self, transport, spec, initial_workers):
        self.transport = transport
        self.spec = spec
        self.master = NetworkedApplicationMaster(spec, initial_workers)
        self.server = (
            self.master.serve_tcp() if transport == "tcp" else None
        )
        self.mesh = (
            TcpPeerHost() if transport == "tcp" else MemoryPeerHost()
        )
        self.results = {}
        self.errors = {}
        self.threads = {}
        self.agents = {}

    def link(self, node_id, fault_plan=None, ack_timeout=0.5):
        if self.transport == "tcp":
            link, _transport = tcp_link(
                self.server.host, self.server.port, node_id,
                fault_plan=fault_plan, ack_timeout=ack_timeout,
                heartbeat_interval=0.2,
            )
            return link
        return memory_link(
            self.master.core, node_id, fault_plan=fault_plan,
            ack_timeout=ack_timeout,
        )

    def start_worker(
        self, worker_id, fault_plan=None, peer_fault_plan=None,
        ring_fail_at=(),
    ):
        def run():
            link = self.link(worker_id, fault_plan=fault_plan)
            agent = WorkerAgent(
                worker_id, link, poll_interval=0.02,
                peer_host=self.mesh, peer_fault_plan=peer_fault_plan,
                ring_fail_at=ring_fail_at,
            )
            self.agents[worker_id] = agent
            try:
                self.results[worker_id] = agent.run()
            except Exception as exc:  # surfaced by the test body
                self.errors[worker_id] = exc
            finally:
                link.close()

        thread = threading.Thread(target=run, daemon=True)
        self.threads[worker_id] = thread
        thread.start()

    def join_all(self, timeout=90.0):
        deadline = time.monotonic() + timeout
        for thread in self.threads.values():
            thread.join(timeout=max(0.1, deadline - time.monotonic()))
        assert not self.errors, self.errors
        assert all(not t.is_alive() for t in self.threads.values()), (
            "workers still running"
        )

    def close(self):
        self.master.close()
        self.mesh.close()


class TestRingJobs:
    def test_steady_state_takes_the_am_out_of_the_gradient_path(
        self, transport
    ):
        spec = JobSpec(
            iterations=12, coordination_interval=4,
            ring_step_timeout=10.0,
        )
        harness = RingHarness(transport, spec, ["w0", "w1", "w2"])
        try:
            for worker in ("w0", "w1", "w2"):
                harness.start_worker(worker)
            harness.join_all()
            status = harness.master.status()
            assert status["complete"]
            assert len(set(status["digests"].values())) == 1
            # The ring activates at the first coordination boundary;
            # after that the only SYNC reaching the AM is the final
            # iteration's closing barrier.
            core = harness.master.core
            for worker in ("w0", "w1", "w2"):
                assert core.executions[(worker, "sync")] == 5
                assert harness.results[worker]["ring_iterations"] == 7
                assert harness.results[worker]["star_iterations"] == 5
            snap = harness.master.metrics.snapshot()
            assert snap.get("net.sync.ring_fallbacks", 0) == 0
        finally:
            harness.close()

    def test_scale_up_chaos_with_ring_and_forced_abort(self, transport):
        """The full gauntlet: AM-link chaos on one worker, peer-link
        chaos on another, one deterministically aborted ring iteration,
        and a mid-training scale-up — all replicas still bit-identical
        and the degraded iteration recovered exactly-once."""
        spec = JobSpec(
            iterations=20, coordination_interval=4, iteration_sleep=0.01,
            allreduce_timeout=10.0, sync_ack_timeout=1.0,
            chunk_bytes=1024, ring_step_timeout=1.0,
        )
        harness = RingHarness(transport, spec, ["w0", "w1"])
        try:
            harness.start_worker(
                "w0", fault_plan=FaultPlan(drop_every=9,
                                           connection_resets=(5, 17)),
                # Abort w0's ring at iteration 6: peers time out, all
                # degrade, and the iteration retries through the star.
                ring_fail_at=(6,),
            )
            harness.start_worker(
                "w1",
                peer_fault_plan=FaultPlan(drop_every=7, duplicate_every=5,
                                          connection_resets=(9,)),
            )
            driver = harness.link("driver", ack_timeout=2.0)
            deadline = time.monotonic() + 30.0
            while True:
                status = driver.request(MessageType.STATUS)
                if status["iteration"] >= 8:
                    break
                assert time.monotonic() < deadline, status
                time.sleep(0.02)
            reply = driver.request(
                MessageType.ADJUSTMENT_REQUEST,
                {"kind": "scale_out", "add": ["w2", "w3"]},
            )
            assert reply["accepted"] is True
            harness.start_worker("w2")
            harness.start_worker("w3")
            harness.join_all()

            status = driver.request(MessageType.STATUS)
            assert status["adjustments_committed"] == 1
            assert status["complete"]
            assert len(set(status["digests"].values())) == 1
            # The forced abort at iteration 6 went through the recovery
            # protocol: either a peer served its cached mean or the
            # whole group fell back to the star — exactly once.
            recovered = sum(
                r["ring_repairs"] + r["ring_fallbacks"]
                for r in harness.results.values()
            )
            assert recovered >= 1
            # Ring iterations actually happened on every survivor.
            for worker in ("w0", "w1"):
                assert harness.results[worker]["ring_iterations"] > 0
            driver.close()
        finally:
            harness.close()

    def test_adjacent_condemned_pair_leaves_cleanly(self):
        """ROADMAP churn defect 2: a scale-in removes w2 *and* its ring
        successor w3 while w2's last all-gather send of the last
        pre-commit iteration is held on the link.  w2 must not leave
        (closing its links under the held send) before w3 has it —
        nobody would repair w3: the survivors move on without it."""

        def churn(held_send):
            spec = JobSpec(
                iterations=16, coordination_interval=4,
                allreduce_timeout=4.0, sync_ack_timeout=1.0,
            )
            harness = RingHarness("memory", spec, ["w0", "w1", "w2", "w3"])
            issued = []
            connect = harness.mesh.connect

            def recording_connect(addr, **kwargs):
                issued.append(connect(addr, **kwargs))
                return issued[-1]

            harness.mesh.connect = recording_connect
            try:
                driver = harness.link("driver", ack_timeout=2.0)
                reply = driver.request(
                    MessageType.ADJUSTMENT_REQUEST,
                    {"kind": "scale_in", "remove": ["w2", "w3"],
                     "at_iteration": 8},
                )
                assert reply["accepted"] is True
                for worker in ("w0", "w1", "w2", "w3"):
                    harness.start_worker(
                        worker,
                        peer_fault_plan=held_send if worker == "w2" else None,
                    )
                harness.join_all(timeout=60.0)
                status = driver.request(MessageType.STATUS)
                driver.close()
                assert status["complete"]
                assert status["adjustments_committed"] == 1
                digests = set(status["digests"].values())
                assert len(digests) == 1
                return digests.pop(), harness.results, issued
            finally:
                harness.close()

        # The ring activates at iteration 4 and the commit is pinned at
        # 8: four ring iterations of 2·(N-1) = 6 one-bucket hops, so the
        # 24th send on w2's one peer link is the last it ever makes.
        reference, _, _ = churn(None)
        digest, results, issued = churn(FaultPlan(net_delays={24: 0.6}))
        held = [link for link in issued if link.node_id == "w2"]
        assert [link.transport._faults.delays_injected for link in held] == [1]
        assert digest == reference
        for worker in ("w2", "w3"):
            assert results[worker]["removed"] is True
            assert results[worker]["ring_iterations"] == 4
            assert results[worker]["ring_repairs"] == 0
            assert results[worker]["ring_fallbacks"] == 0

    def test_job_leaves_no_ring_thread_behind(self, transport):
        spec = JobSpec(iterations=12, coordination_interval=4)
        harness = RingHarness(transport, spec, ["w0", "w1", "w2"])
        before = set(threading.enumerate())
        try:
            for worker in ("w0", "w1", "w2"):
                harness.start_worker(worker)
            harness.join_all()
            assert harness.results["w0"]["ring_iterations"] > 0
        finally:
            harness.close()
        assert [
            t.name for t in set(threading.enumerate()) - before
            if t.name.startswith("ring-")
        ] == []

    def test_star_only_job_when_ring_disabled(self, transport):
        spec = JobSpec(iterations=8, coordination_interval=4,
                       ring_enabled=False)
        harness = RingHarness(transport, spec, ["w0", "w1"])
        try:
            harness.start_worker("w0")
            harness.start_worker("w1")
            harness.join_all()
            status = harness.master.status()
            assert status["complete"]
            assert len(set(status["digests"].values())) == 1
            core = harness.master.core
            for worker in ("w0", "w1"):
                assert core.executions[(worker, "sync")] == 8
                assert harness.results[worker]["ring_iterations"] == 0
        finally:
            harness.close()


class TestMasterRingPlumbing:
    def test_sync_rejects_superseded_generation(self):
        spec = JobSpec(iterations=8)
        net = NetworkedApplicationMaster(spec, ["w0"])
        net.state.generation = 2
        net.state.groups[2] = ("w0",)
        with pytest.raises(KeyError, match="superseded"):
            net.barriers.sync("w0", {"generation": 1, "iteration": 3,
                                    "grads": None})

    def test_superseded_barriers_dropped_with_error(self):
        from repro.net.sync_barriers import _SyncBarrier

        spec = JobSpec(iterations=64)
        net = NetworkedApplicationMaster(spec, ["w0", "w1"])
        barrier = net.barriers.open[(0, 7)] = _SyncBarrier(("w0", "w1"))
        net.state.generation = 1
        net.barriers.drop_superseded()
        assert (0, 7) not in net.barriers.open
        assert barrier.event.is_set()
        assert "superseded" in barrier.result["__error__"]

    def test_ring_payload_requires_addresses_and_two_members(self):
        spec = JobSpec(iterations=8)
        net = NetworkedApplicationMaster(spec, ["w0", "w1"])
        assert net._ring_payload(0, ("w0", "w1"), active_from=4) is None
        net.state.peers["w0"] = "mem://w0"
        assert net._ring_payload(0, ("w0", "w1"), active_from=4) is None
        net.state.peers["w1"] = "mem://w1"
        ring = net._ring_payload(0, ("w0", "w1"), active_from=4)
        assert ring == {
            "epoch": 0, "order": ["w0", "w1"],
            "peers": {"w0": "mem://w0", "w1": "mem://w1"},
            "active_from": 4,
        }
        assert net._ring_payload(0, ("w0",), active_from=4) is None
        off = JobSpec(iterations=8, ring_enabled=False)
        star = NetworkedApplicationMaster(off, ["w0", "w1"])
        star.state.peers.update(net.state.peers)
        assert star._ring_payload(0, ("w0", "w1"), active_from=4) is None

    def test_reply_wait_derives_from_allreduce_timeout(self):
        assert JobSpec(allreduce_timeout=3.0).reply_wait == 8.0
        assert JobSpec().reply_wait == JobSpec().allreduce_timeout + 5.0

    def test_sync_boundary_filters_empty_grads_and_zero_fills_for_ring(
        self
    ):
        """``None``/empty contributions never reach the averaging math;
        on a ring-enabled job absent members become explicit zeros so
        the divisor stays the member count."""
        spec = JobSpec(iterations=8)
        net = NetworkedApplicationMaster(spec, ["w0", "w1"])
        g = {"x": np.array([2.0, 4.0])}
        done = []

        def sync(worker, grads):
            done.append(net.barriers.sync(worker, {
                "generation": 0, "iteration": 0, "grads": grads,
            }))

        t = threading.Thread(target=sync, args=("w0", g), daemon=True)
        t.start()
        sync("w1", None)
        t.join(timeout=10.0)
        assert len(done) == 2
        for result in done:
            assert result["members"] == 2
            # (g + zeros) / 2 — the absent member still divides.
            assert np.array_equal(result["grads"]["x"],
                                  np.array([1.0, 2.0]))

    def test_sync_all_empty_returns_none(self):
        spec = JobSpec(iterations=8)
        net = NetworkedApplicationMaster(spec, ["w0"])
        result = net.barriers.sync(
            "w0", {"generation": 0, "iteration": 0, "grads": None}
        )
        assert result == {"grads": None, "members": 1}
