"""The in-process job the end-to-end tests drive."""

import time

import numpy as np

from repro.coordination.messages import MessageType
from repro.core.hybrid_scaling import BatchSchedule
from repro.net import LocalJob, params_digest, ring_reference_average
from repro.training.dataloader import SerialLoader
from repro.training.datasets import make_classification
from repro.training.nn import average_gradients
from repro.training.optim import MomentumSGD


class Harness(LocalJob):
    """A :class:`LocalJob` with the suite's link settings (0.5 s acks;
    on TCP 0.2 s heartbeats and one dial, so a failed dial fails the
    test) and a ``join_all`` that asserts success."""

    def link(self, node_id, **options):
        options.setdefault("ack_timeout", 0.5)
        if self.transport == "tcp":
            options.setdefault("heartbeat_interval", 0.2)
            options.setdefault("connect_attempts", 1)
        return super().link(node_id, **options)

    def join_all(self, timeout=90.0):
        finished = self.join(timeout)
        assert not self.errors, self.errors
        assert finished, "workers still running"


def wait_for_iteration(driver, iteration, timeout=30.0):
    deadline = time.monotonic() + timeout
    while True:
        status = driver.request(MessageType.STATUS)
        if status["iteration"] >= iteration:
            return status
        assert time.monotonic() < deadline, status
        time.sleep(0.02)


def serial_replay(spec, records, iterations):
    """One thread replays ``iterations`` of a job from its AM journal.

    The group size, total batch and learning rate of every iteration
    come from the journal's ``init`` and ``commit`` records; the
    reduction is the one the live planes use (ring order with zeros for
    an empty shard when the ring is on, the group-ordered mean of the
    non-empty shards when it is off).  Returns the parameter digest
    every replica that trained those iterations must end on.
    """
    init = next(r for r in records if r["kind"] == "init")
    size = len(init["data"]["workers"])
    commits = sorted(
        (r["data"]["commit_iteration"], r["data"])
        for r in records if r["kind"] == "commit"
    )
    schedule = spec.initial_schedule()
    dataset = make_classification(
        train_size=spec.train_size, test_size=spec.test_size,
        input_dim=spec.input_dim, num_classes=spec.num_classes,
        seed=spec.seed,
    )
    architecture = spec.build_architecture()
    loader = SerialLoader(dataset_size=spec.train_size, seed=spec.seed)
    optimizer = MomentumSGD(spec.base_lr, momentum=spec.momentum)
    params = architecture.init(spec.seed)
    for iteration in range(iterations):
        while commits and commits[0][0] <= iteration:
            commit = commits.pop(0)[1]
            size = len(commit["new_group"])
            schedule = BatchSchedule.from_payload(commit["schedule"])
        shards = loader.next_iteration(
            size, schedule.per_worker_batch(size)
        )
        grads = [
            architecture.loss_and_gradients(
                params, dataset.train_x[idx], dataset.train_y[idx]
            )[1] if idx.size else None
            for idx in shards
        ]
        concrete = [g for g in grads if g]
        mean = None
        if concrete and spec.ring_enabled:
            mean = ring_reference_average([
                g or {k: np.zeros_like(v) for k, v in concrete[0].items()}
                for g in grads
            ])
        elif concrete:
            mean = average_gradients(concrete)
        if mean is not None:
            optimizer.lr = schedule.lr_at(iteration)
            optimizer.step(params, mean)
    return params_digest(params)
