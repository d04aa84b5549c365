"""Adam over a parameter arena: every parameter in one flat vector."""

from __future__ import annotations

import numpy as np

from . import kernels

# moment decay rates and the denominator's epsilon (Kingma & Ba 2015)
BETAS = (0.9, 0.999)
EPS = 1e-8


class TrainingError(RuntimeError):
    pass


class AdamState:
    """Moment vectors of an arena of `size` floats, the learning rate and
    the step counter."""

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.step = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One in-place Adam update of the flat parameter vector `params` (a
    store's `flat`) by the matching gradient vector `grads` (its `grad`)."""
    if not params.shape == grads.shape == state.m.shape:
        raise TrainingError(f"shapes differ: parameters {params.shape}, gradients "
                            f"{grads.shape}, moments {state.m.shape}")
    state.step += 1
    kernels.adam_update(params, grads, state.m, state.v, state.lr, *BETAS, EPS, state.step)
