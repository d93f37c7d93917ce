"""Table II: characteristics of the training states.

Paper shape: states live on heterogeneous devices; the GPU-resident parts
(model parameters, optimizer state) are orders of magnitude larger than
the CPU-resident parts (data-loading state, communication group, runtime
info) — which is why replication must be efficient for GPU states and
why CPU states can ride along over a plain socket.
"""

import types

from conftest import fmt_row

from repro.coordination.hooks import DEFAULT_HOOKS
from repro.net import StateBlob
from repro.perfmodel import MODEL_ZOO
from repro.training import (
    MomentumSGD,
    SerialLoader,
    init_mlp,
    loss_and_gradients,
    make_classification,
)


def build_table():
    rows = []
    for name, spec in MODEL_ZOO.items():
        rows.append((
            name,
            spec.param_bytes,
            spec.optimizer_bytes,
            spec.cpu_state_bytes,
        ))
    return rows


def test_table2_state_characteristics(benchmark, save_result):
    rows = benchmark(build_table)

    widths = (14, 14, 14, 12)
    lines = [fmt_row(
        ("Model", "Params(GPU)", "Optim(GPU)", "CPU state"), widths
    )]
    for name, params, optim, cpu in rows:
        lines.append(fmt_row(
            (name, f"{params / 1024**2:.0f}MB", f"{optim / 1024**2:.0f}MB",
             f"{cpu}B"),
            widths,
        ))
    save_result("table2_state_characteristics", lines)

    for _name, params, optim, cpu in rows:
        assert params > 100 * cpu  # GPU state dominates CPU state
        assert optim == params  # one momentum slot per parameter

    # Cross-check with the real (numpy) hook bundle Elan replicates.
    dataset = make_classification(train_size=256, test_size=64, seed=0)
    replica = types.SimpleNamespace(
        params=init_mlp(dataset.input_dim, 64, dataset.num_classes, seed=0),
        optimizer=MomentumSGD(lr=0.1),
        loader=SerialLoader(dataset.train_size),
    )
    _loss, grads = loss_and_gradients(replica.params, dataset.train_x[:16],
                                      dataset.train_y[:16])
    replica.optimizer.step(replica.params, grads)
    bundle = {hook.name: hook.capture(replica) for hook in DEFAULT_HOOKS}
    gpu = StateBlob.encode(
        {"params": bundle["params"], "optimizer": bundle["optimizer"]}
    ).total_bytes
    cpu = StateBlob.encode({"loader": bundle["loader"]}).total_bytes
    assert gpu > 10 * cpu
