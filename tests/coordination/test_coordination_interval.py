"""Live tests for sparse coordination (§V-B: the frequency of
coordination is configurable).

With ``coordination_interval = k`` workers only check in every k-th
iteration, so adjustments must commit exactly on k-boundaries and every
worker must switch groups at the same boundary — the lockstep invariant
under the least favourable alignment.
"""

import pytest

from repro.core import ElasticJob


def live_job(interval, workers=2, **spec):
    spec.setdefault("total_batch_size", 16 * workers)
    spec.setdefault("iterations", 60)
    spec.setdefault("iteration_sleep", 0.005)
    return ElasticJob(
        workers=workers, coordination_interval=interval, **spec
    )


class TestSparseCoordination:
    @pytest.mark.parametrize("interval", [2, 5, 8])
    def test_commit_lands_on_boundary(self, interval):
        job = live_job(interval, seed=interval)
        with job:
            assert job.wait_until_iteration(interval + 1)
            job.scale_out(2)
            assert job.wait_for_adjustments(1)
        assert job.history[0].commit_iteration % interval == 0
        assert len(set(job.digests().values())) == 1

    def test_training_correct_between_boundaries(self):
        """With interval 4, iterations between boundaries never consult
        the AM: each worker coordinates once per boundary."""
        job = live_job(4, seed=3, iterations=20)
        with job:
            pass
        # Boundaries 4, 8, 12, 16 (iteration 0 is the start): 4 per worker.
        assert sum(
            count for (_sender, kind), count
            in job.master.core.executions.items() if kind == "coordinate"
        ) == 2 * 4
        progress = [
            r["data"]["iteration"] for r in job.master.journal.records()
            if r["kind"] == "progress"
        ]
        assert progress == [4, 8, 12, 16]

    def test_multiple_adjustments_with_sparse_coordination(self):
        job = live_job(3, seed=4)
        with job:
            assert job.wait_until_iteration(4)
            job.scale_out(1)
            assert job.wait_for_adjustments(1)
            assert job.wait_until_iteration(job.status()["iteration"] + 4)
            job.scale_in(1)
            assert job.wait_for_adjustments(2)
        for plan in job.history:
            assert plan.commit_iteration % 3 == 0
        assert len(set(job.digests().values())) == 1

    def test_all_workers_stop_on_the_same_boundary(self):
        job = live_job(5, workers=4, seed=5, iterations=20)
        with job:
            assert job.wait_until_iteration(7)
        iterations = {
            report["iteration"] for report in job.master.state.final.values()
        }
        assert iterations == {20}
        assert len(job.master.state.final) == 4
