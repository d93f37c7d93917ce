"""Soak test: a burst of randomized adjustments against one live job.

Stresses the protocol end to end — scale-outs, scale-ins and migrations
in random order with no settling time beyond commit completion — and
verifies the core invariants after every single commit: replica
consistency, group algebra, loader agreement and monotone progress.
"""

import numpy as np
import pytest

from repro.core import ElasticJob
from repro.core.hybrid_scaling import ScalingSpec


@pytest.mark.parametrize("seed", [0, 1])
def test_adjustment_soak(seed):
    job = ElasticJob(
        workers=2, train_size=1024, test_size=128, total_batch_size=64,
        seed=seed, coordination_interval=1, iterations=600,
        iteration_sleep=0.002,
        scaling=ScalingSpec("weak", ramp_iterations=5),
    )
    rng = np.random.default_rng(seed)
    with job:
        for committed in range(1, 11):
            assert job.wait_until_iteration(
                job.status()["iteration"] + 2, timeout=30
            ), "training stalled mid-soak"
            group_size = len(job.status()["group"])
            choice = rng.integers(0, 3)
            if choice == 0 and group_size < 8:
                job.scale_out(int(rng.integers(1, 3)))
            elif choice == 1 and group_size > 1:
                job.scale_in(1)
            else:
                job.migrate()
            assert job.wait_for_adjustments(committed, timeout=30), (
                f"adjustment {committed} never committed"
            )
            plan = job.history[-1]
            # Invariants checked after EVERY commit:
            assert plan.commit_iteration % job.coordination_interval == 0
            assert len(plan.group) >= 1
            assert plan.total_batch_size >= len(plan.group)
            assert plan.group == job.status()["group"]

    assert len(set(job.digests().values())) == 1
    final = job.master.state.final
    assert {report["iteration"] for report in final.values()} == {600}
    loaders = [
        job.job.agents[worker].final_state["loader"] for worker in final
    ]
    assert len({loader["position"] for loader in loaders}) == 1
    assert job.status()["adjustments"] == 10
    # Every thread wound down (no leaks from the churn).
    assert not any(thread.is_alive() for thread in job.job._threads)
