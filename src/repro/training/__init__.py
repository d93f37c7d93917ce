"""Training substrate: numpy models, optimizers, loaders, training state.

The real (non-simulated) execution layer of the reproduction: everything
every live elastic worker trains with, plus the two data-loading semantics
of paper §V-C and the replicable training state of Table II.
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
from .state import RuntimeInfo, TrainingState
from .trainer import (
    TrainResult,
    progressive_lr,
    train_data_parallel,
    train_single,
)

__all__ = [
    "Architecture",
    "ChunkLoader",
    "Dataset",
    "MomentumSGD",
    "Params",
    "RuntimeInfo",
    "SerialLoader",
    "TrainResult",
    "TrainingState",
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
    "progressive_lr",
    "softmax",
    "train_data_parallel",
    "train_single",
]
