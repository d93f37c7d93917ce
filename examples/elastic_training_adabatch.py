"""The §VI-B scenario: AdaBatch (dynamic batch sizes) powered by Elan.

Part 1 runs the real thing at laptop scale: a live elastic job whose
batch size doubles twice; at each doubling Elan scales the worker pool
out so the hardware keeps up, and the progressive linear scaling rule
ramps the learning rate.  A static twin trains with the small batch
throughout for the accuracy comparison.

Part 2 replays the paper's ImageNet-scale experiment on the calibrated
models and prints Fig. 18 / Fig. 19 / Table IV.

Run:  python examples/elastic_training_adabatch.py
"""

from repro.core import ElasticJob, ElasticTrainingExperiment
from repro.core.hybrid_scaling import ScalingSpec
from repro.training import make_classification, train_single


def live_adabatch_run():
    print("=== Part 1: live AdaBatch at laptop scale ===")
    dataset = make_classification(train_size=4096, test_size=1024, seed=3)

    # Static twin: batch 64 on 2 workers for the whole budget.
    static = train_single(dataset, 64, epochs=12, base_lr=0.01,
                          lr_scaling="fixed", seed=3)
    print(f"static  (batch 64 throughout): accuracy {static.test_accuracy:.3f}")

    # Elastic: double the batch at two points; Elan doubles the workers
    # (weak scaling) and ramps the LR progressively.
    iterations_per_phase = 4 * (dataset.train_size // 64)
    job = ElasticJob(
        workers=2, train_size=4096, test_size=1024, input_dim=32,
        hidden_dim=64, num_classes=10, total_batch_size=64, base_lr=0.01,
        seed=3,
        iterations=2 * iterations_per_phase,
        scaling=ScalingSpec("weak", ramp_iterations=15),
    )
    with job:
        job.wait_until_iteration(iterations_per_phase)
        job.scale_out(2)  # batch 64 -> 128 on 4 workers
        job.wait_for_adjustments(1)
        job.wait_until_iteration(
            job.status()["iteration"] + iterations_per_phase // 2
        )
        job.scale_out(4)  # batch 128 -> 256 on 8 workers
        job.wait_for_adjustments(2)
    print(f"elastic (batch 64->128->256):  accuracy {job.evaluate():.3f}")
    for adjustment in job.history:
        print(
            f"  scaled to {len(adjustment.group)} workers at iteration "
            f"{adjustment.commit_iteration}: batch "
            f"{adjustment.total_batch_size}, lr ramps to "
            f"{adjustment.schedule.lr_ramp.target_lr:.3f}"
        )


def paper_scale_replay():
    print("\n=== Part 2: the paper's ResNet-50/ImageNet experiment ===")
    experiment = ElasticTrainingExperiment(seed=0)
    static, fixed, elastic = experiment.all_configurations()
    print(f"{'config':24s} {'total time':>12s} {'final top-1':>12s}  workers")
    for run in (static, fixed, elastic):
        print(
            f"{run.label:24s} {run.total_time:10.0f} s "
            f"{run.final_accuracy:11.2%}  "
            f"{[p.workers for p in run.phases]}"
        )
    print("\nTable IV — time to solution:")
    print(f"{'target':>8s} {'512 (16)':>10s} {'512-2048 (64)':>14s} "
          f"{'Elastic':>10s} {'speedup':>9s}")
    for target in (0.745, 0.75, 0.755):
        ts = static.time_to_accuracy(target)
        tf = fixed.time_to_accuracy(target)
        te = elastic.time_to_accuracy(target)
        print(f"{target:8.1%} {ts:10.0f} {tf:14.0f} {te:10.0f} {ts / te:8.3f}x")
    print("(paper: ~1.25x at every target, growing with the target)")


if __name__ == "__main__":
    live_adabatch_run()
    paper_scale_replay()
