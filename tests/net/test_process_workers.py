"""Process workers under :class:`~repro.net.LocalJob`.

``spawn_worker`` runs a worker as ``python -m repro.cli join`` against
the job's loopback TCP AM; the job files each process's exit like a
thread's end, and :meth:`~repro.net.LocalJob.wait` stops at the first
failed worker instead of running out its timeout, and a takeover onto
a standby endpoint reaches processes through ``join --am-endpoint``.
"""

import time

import pytest

from repro.coordination.messages import MessageType
from repro.net import JobSpec, LocalJob, reserve_port
from repro.net.scenario import assert_replay_matches


class TestProcessWorkers:
    def test_reset_and_scale_out_end_on_one_digest(self):
        job = LocalJob(
            "tcp",
            JobSpec(iterations=24, coordination_interval=4,
                    iteration_sleep=0.02),
            ["w0", "w1"],
        )
        try:
            # w0's 6th AM send dies with its connection; the link
            # redials and resends, and the AM executes nothing twice.
            job.spawn_worker("w0", "--reset-at", "6")
            job.spawn_worker("w1")
            assert job.wait(lambda s: s["iteration"] >= 4, 15)["iteration"] >= 4
            reply = job.driver.request(
                MessageType.ADJUSTMENT_REQUEST,
                {"kind": "scale_out", "add": ["w2"]},
            )
            assert reply["accepted"]
            job.spawn_worker("w2")
            status = job.wait(lambda s: s["complete"], 30)
            assert job.join(10.0)
        finally:
            job.close()
        assert status["complete"], status
        assert status["adjustments_committed"] == 1
        assert sorted(status["digests"]) == ["w0", "w1", "w2"]
        assert len(set(status["digests"].values())) == 1
        assert sorted(job.results) == ["w0", "w1", "w2"]
        assert not job.errors and not job.killed
        # Three workers and the driver, plus w0's redial after its reset.
        assert job.server.connections_accepted >= 5

    def test_a_failed_process_ends_the_wait_at_once(self):
        job = LocalJob("tcp", JobSpec(iterations=8), ["w0"])
        try:
            job.spawn_worker("w0", "--no-such-flag")
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="no-such-flag"):
                job.wait(lambda s: s["complete"], 30)
            assert time.monotonic() - started < 5.0
        finally:
            job.close()
        assert "exited 2" in str(job.errors["w0"])
        assert not job.results and not job.killed

    def test_am_takeover_onto_the_standby_endpoint(self):
        """Two processes know a standby endpoint only from
        ``--am-endpoint``; the successor serves there, not on the
        primary's port, and both workers redial it and finish."""
        job = LocalJob(
            "tcp",
            JobSpec(iterations=24, coordination_interval=4,
                    iteration_sleep=0.02),
            ["w0", "w1"],
        )
        host, primary = job.server.host, job.server.port
        standby, port = reserve_port(host)
        try:
            for worker in ("w0", "w1"):
                job.spawn_worker(worker, "--am-endpoint", f"{host}:{port}")
            job.link("driver", endpoints=[(host, primary), (host, port)])
            assert job.wait(lambda s: s["iteration"] >= 8, 15)["iteration"] >= 8
            standby.close()
            job.fail_over((host, port))
            status = job.wait(lambda s: s["complete"], 30)
            assert job.join(10.0)
        finally:
            standby.close()
            job.close()
        assert status["complete"], status
        assert (job.server.host, job.server.port) == (host, port) != (
            host, primary
        )
        assert status["epoch"] == 2
        assert sorted(status["digests"]) == ["w0", "w1"]
        assert len(set(status["digests"].values())) == 1
        assert sorted(job.results) == ["w0", "w1"]
        assert not job.errors and not job.killed
        # The successor's listener saw both workers' redials and the
        # driver's.
        assert job.server.connections_accepted >= 3
        assert_replay_matches(job.master)
