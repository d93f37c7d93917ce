"""Table II on the state Elan replicates: the RegisterHook defaults."""

import types

from repro.coordination.hooks import DEFAULT_HOOKS
from repro.net.chunks import StateBlob
from repro.training import (
    MomentumSGD,
    SerialLoader,
    init_mlp,
    loss_and_gradients,
    make_classification,
)


def encoded_bytes(state: dict) -> int:
    """Bytes ``state`` occupies as the blob a joiner fetches."""
    return StateBlob.encode(state).total_bytes


class TestTableII:
    def test_gpu_state_much_larger_than_cpu_state(self):
        """Table II: model+optimizer (GPU) dominate the data-loading
        (CPU) state in the hook bundle every adjustment replicates."""
        dataset = make_classification(train_size=256, test_size=64, seed=0)
        replica = types.SimpleNamespace(
            params=init_mlp(dataset.input_dim, 32, dataset.num_classes, seed=0),
            optimizer=MomentumSGD(lr=0.1),
            loader=SerialLoader(dataset.train_size, seed=0),
        )
        _loss, grads = loss_and_gradients(
            replica.params, dataset.train_x[:16], dataset.train_y[:16]
        )
        replica.optimizer.step(replica.params, grads)
        replica.loader.next_iteration(4, 4)
        bundle = {hook.name: hook.capture(replica) for hook in DEFAULT_HOOKS}
        gpu = encoded_bytes(
            {"params": bundle["params"], "optimizer": bundle["optimizer"]}
        )
        assert gpu > 10 * encoded_bytes({"loader": bundle["loader"]})
