"""Training substrate: numpy models, optimizers, loaders, trainers.

The real (non-simulated) execution layer of the reproduction: everything
every live elastic worker trains with, plus the two data-loading semantics
of paper §V-C.  The replicable state of Table II is what the RegisterHook
defaults capture from these pieces (:data:`repro.coordination.hooks.DEFAULT_HOOKS`).
"""

from .architectures import (
    Architecture,
    build_architecture,
    deep_mlp_architecture,
    logistic_regression_architecture,
    mlp_architecture,
)
from .dataloader import ChunkLoader, SerialLoader
from .datasets import Dataset, make_classification
from .nn import (
    Params,
    accuracy,
    average_gradients,
    clone_params,
    forward,
    init_mlp,
    loss_and_gradients,
    param_bytes,
    params_allclose,
    softmax,
)
from .optim import MomentumSGD
from .trainer import (
    TrainResult,
    train_data_parallel,
    train_single,
)

__all__ = [
    "Architecture",
    "ChunkLoader",
    "Dataset",
    "MomentumSGD",
    "Params",
    "SerialLoader",
    "TrainResult",
    "accuracy",
    "average_gradients",
    "clone_params",
    "build_architecture",
    "deep_mlp_architecture",
    "forward",
    "init_mlp",
    "logistic_regression_architecture",
    "loss_and_gradients",
    "make_classification",
    "mlp_architecture",
    "param_bytes",
    "params_allclose",
    "softmax",
    "train_data_parallel",
    "train_single",
]
