"""The progressive linear scaling rule (paper §III-3, Eqs. 1-3).

When the total batch size scales by ``k``, the SGD update equation (Eq. 1)
calls for scaling the learning rate by ``k`` as well — but a sharp change
may diverge the model, so the change is applied *progressively* over ``T``
iterations:

    lr_t = lr_0 + (t - T_0) / T * (lr_T - lr_0)   for T_0 <= t < T_0 + T
    lr_t = lr_T = k * lr_0                        afterwards
"""

from __future__ import annotations

import dataclasses

#: The paper finishes the LR adjustment in 100 iterations (§VI-B).
DEFAULT_RAMP_ITERATIONS = 100


@dataclasses.dataclass(frozen=True)
class LrRamp:
    """One progressive learning-rate adjustment."""

    start_iteration: int  # T_0
    length: int  # T
    base_lr: float  # lr_0
    target_lr: float  # lr_T = k * lr_0

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"ramp length must be >= 0, got {self.length}")
        if self.base_lr <= 0 or self.target_lr <= 0:
            raise ValueError("learning rates must be positive")

    def lr_at(self, iteration: int) -> float:
        """Eq. 3: the learning rate at ``iteration``."""
        if iteration < self.start_iteration:
            return self.base_lr
        progressed = iteration - self.start_iteration
        if self.length == 0 or progressed >= self.length:
            return self.target_lr
        fraction = progressed / self.length
        return self.base_lr + fraction * (self.target_lr - self.base_lr)

    @property
    def scale_factor(self) -> float:
        """The ``k`` of Eq. 2."""
        return self.target_lr / self.base_lr


def ramp_for_scale(
    base_lr: float,
    scale: float,
    start_iteration: int,
    length: int = DEFAULT_RAMP_ITERATIONS,
) -> LrRamp:
    """Ramp implementing Eq. 2: target ``lr_T = lr_0 * k``."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return LrRamp(
        start_iteration=start_iteration,
        length=length if scale != 1.0 else 0,
        base_lr=base_lr,
        target_lr=base_lr * scale,
    )
