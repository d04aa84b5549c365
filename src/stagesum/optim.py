"""Adam over a parameter arena: every parameter in one flat vector."""

from __future__ import annotations

import numpy as np

from . import kernels


class TrainingError(RuntimeError):
    pass


class AdamState:
    """Moment vectors of an arena of `size` floats, and the step counter."""

    def __init__(self, size: int, lr: float = 2e-5, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
    kernels.adam_update(params, grads, state.m, state.v,
                        state.lr, state.beta1, state.beta2, state.eps, state.step)
