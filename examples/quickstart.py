"""Quickstart: elastic training with the Table III API.

Starts a 2-worker data-parallel job on the networked stack in this
process (the AM plus one worker thread each, over the in-memory
transport), then — while training keeps running — scales out to 4
workers, scales back in, and finally migrates the whole job onto fresh
workers.  Every adjustment follows the paper's 5-step procedure:
request, report, coordinate, replicate, adjust; weak scaling grows the
total batch with the workers and ramps the learning rate (§III).

Run:  python examples/quickstart.py

Set ``ELAN_TRACE=/path/to/trace.json`` to export a Chrome-format trace
of the run (open it in https://ui.perfetto.dev); see
docs/OBSERVABILITY.md.
"""

import os

from repro.core import ElasticJob
from repro.core.hybrid_scaling import ScalingSpec
from repro.observability import Tracer


def main():
    tracer = Tracer(process="elan-live")
    job = ElasticJob(
        workers=2,
        train_size=2048,
        test_size=512,
        total_batch_size=64,
        base_lr=0.02,
        seed=7,
        iterations=200,
        iteration_sleep=0.005,
        scaling=ScalingSpec("weak", ramp_iterations=20),
        tracer=tracer,
    )
    print("starting a 2-worker elastic job ...")
    with job:
        job.wait_until_iteration(30)
        print(f"  status: {job.status()}")

        print("scaling out to 4 workers (training continues meanwhile) ...")
        new_ids = job.scale_out(2)
        job.wait_for_adjustments(1)
        print(f"  new workers {new_ids} joined: {job.status()}")

        job.wait_until_iteration(job.status()["iteration"] + 30)
        print("scaling in by 1 worker ...")
        removed = job.scale_in(1)
        job.wait_for_adjustments(2)
        print(f"  removed {removed}: {job.status()}")

        print("migrating the job onto fresh workers ...")
        migrated = job.migrate()
        job.wait_for_adjustments(3)
        print(f"  now running on {migrated}: {job.status()}")
        print(f"training out the {job.spec.iterations}-iteration budget ...")

    digests = job.digests()
    consistent = len(set(digests.values())) == 1
    print(f"replicas consistent: {consistent} ({len(digests)} workers)")
    print(f"test accuracy after elastic training: {job.evaluate():.3f}")
    print("adjustments committed:")
    for adjustment in job.history:
        print(
            f"  at iteration {adjustment.commit_iteration:4d} "
            f"-> group {adjustment.group}, batch "
            f"{adjustment.total_batch_size}, strategy {adjustment.strategy}"
        )

    trace_path = os.environ.get("ELAN_TRACE")
    if trace_path:
        tracer.export(trace_path)
        print(f"trace: {len(tracer.to_events())} events -> {trace_path}")
    if len(job.history) != 3 or not consistent:
        raise SystemExit("expected three committed adjustments on one digest")


if __name__ == "__main__":
    main()
