"""The state plane rides an AM takeover like every other request.

An upload whose AM is taken over in the middle of its window resumes on
the successor: the successor's intake opens at the first chunk that
reaches it, its ``state_done`` answer lists the seqs it lacks, and the
uploader resends exactly those.  A joiner whose AM-side fetch is fenced
between two chunk requests re-enrolls and finishes on the successor.
Both run over the in-memory transport and loopback TCP.
"""

import threading

import pytest

from repro.coordination.messages import MessageType
from repro.net import JobSpec

from .harness import Harness


@pytest.fixture(params=["memory", "tcp"])
def transport(request):
    return request.param


def make_spec():
    # Star-only (no mesh), so joiners pull the whole blob from the AM;
    # 256-byte chunks cut the snapshot into ~20 of them.
    return JobSpec(
        iterations=12, coordination_interval=4, iteration_sleep=0.01,
        chunk_bytes=256, replication_window=4, ring_enabled=False,
    )


class TakeoverJob(Harness):
    """A job whose AM is taken over from inside one worker's request
    path: before each of ``worker``'s requests, ``trigger(msg_type,
    payload)`` is asked, and the first time it holds ``takeover(job)``
    runs before the request goes out."""

    def __init__(self, transport, worker, trigger, takeover):
        super().__init__(transport, make_spec(), ["w0", "w1"])
        self.worker, self.trigger, self.takeover = worker, trigger, takeover
        self.fired = False
        self._fire_lock = threading.Lock()

    def link(self, node_id, **options):
        link = super().link(node_id, **options)
        if node_id == self.worker:
            request = link.request

            def hooked(msg_type, payload=None, **kwargs):
                with self._fire_lock:
                    fire = not self.fired and self.trigger(msg_type, payload)
                    self.fired = self.fired or fire
                if fire:
                    self.takeover(self)
                return request(msg_type, payload, **kwargs)

            link.request = hooked
        return link

    def scale_out(self):
        """Run w0 and w1, add w2, and wait for all three to finish."""
        self.start_worker("w0")
        self.start_worker("w1")
        assert self.driver.request(
            MessageType.ADJUSTMENT_REQUEST,
            {"kind": "scale_out", "add": ["w2"]},
        )["accepted"] is True
        self.start_worker("w2")
        self.join_all(timeout=60.0)
        assert self.fired
        status = self.driver.request(MessageType.STATUS)
        assert status["complete"] and status["epoch"] == 2, status
        assert status["adjustments_committed"] == 1
        assert sorted(status["digests"]) == ["w0", "w1", "w2"]
        assert len(set(status["digests"].values())) == 1, status
        return status


class TestUploadSpansATakeover:
    def test_window_upload_resumes_on_the_successor(self, transport):
        """The AM is taken over just before chunk 4 leaves, with up to
        four chunks in flight.  The upload completes against the
        successor, which journals the uploaded blob's digest, and ran
        every seq exactly once; one ``state_done`` found chunks the
        predecessor held missing and one finalized."""
        old = {}

        def takeover(job):
            old["am"] = job.master
            job.fail_over()

        job = TakeoverJob(
            transport, "w0",
            lambda msg_type, payload: (
                msg_type is MessageType.STATE_CHUNK and payload["seq"] == 4
            ),
            takeover,
        )
        try:
            job.scale_out()
            summary = job.agents["w0"].upload_summary
            assert summary["chunks"] > 8
            successor = job.master
            snapshot = successor.state.last_snapshot
            assert snapshot["transfer_id"] == summary["transfer_id"]
            assert snapshot["digest"] == summary["digest"]
            executions = successor.core.executions
            assert executions[("w0", "state_chunk")] == summary["chunks"]
            assert executions[("w0", "state_done")] == 2
            assert old["am"].core.executions[("w0", "state_chunk")] >= 1
            snap = successor.metrics.snapshot()
            assert snap["net.chunks.received"] == summary["chunks"]
            assert "net.chunks.duplicate" not in snap
        finally:
            job.close()


class TestFetchSpansATakeover:
    def test_joiner_fetch_rides_the_takeover(self, transport):
        """The AM is fenced between the joiner's first and second chunk
        requests and its successor promoted 0.1 s later.  The fenced
        answer does not end the join: the joiner backs off, re-enrolls
        with the successor, fetches the rest there and ends on the
        group's digest."""
        promoted = []

        def fence(job):
            job.master.abandon()
            timer = threading.Timer(0.1, job.fail_over)
            promoted.append(timer)
            timer.start()

        job = TakeoverJob(
            transport, "w2",
            lambda msg_type, payload: (
                msg_type is MessageType.STATE_FETCH
                and (payload or {}).get("seq") == 1
            ),
            fence,
        )
        try:
            job.scale_out()
            joiner = job.agents["w2"]
            assert joiner.enrollments == 1
            if transport == "memory":
                # The fenced AM answered am_superseded.  Over TCP it
                # hung up instead, and the link's resend rode that.
                assert joiner.am_retries >= 1
            assert job.master.core.executions[("w2", "state_fetch")] >= 1
        finally:
            for timer in promoted:
                timer.join()
            job.close()
