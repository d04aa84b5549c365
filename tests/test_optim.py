"""Adam optimizer tests against closed-form and hand-rolled traces."""

import numpy as np
import pytest

from stagesum import kernels, optim
from stagesum.autodiff import Tensor
from stagesum.checkpoint import ParamStore
from stagesum.optim import AdamState, TrainingError, adam_step


def test_zero_gradient_leaves_params_unchanged():
    params = np.array([1.0, -2.0])
    state = AdamState(2, 0.1)
    adam_step(params, np.zeros(2), state)
    assert np.array_equal(params, [1.0, -2.0])
    assert state.step == 1
    # the moment vectors decayed to zero
    assert np.array_equal(state.m, np.zeros(2))
    assert np.array_equal(state.v, np.zeros(2))


def test_first_step_magnitude_is_lr():
    # closed form at step 1: m_hat = g, v_hat = g^2, update = lr*g/(|g|+eps)
    params = np.zeros(1)
    adam_step(params, np.ones(1), AdamState(1, 0.1))
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    assert abs(float(params[0]) - expected) < 1e-15


def test_two_steps_match_scalar_reference():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    g = 0.7
    # hand-rolled scalar Adam trace
    w_ref, m, v = 2.0, 0.0, 0.0
    for step in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**step)
        v_hat = v / (1 - b2**step)
        w_ref -= lr * m_hat / (np.sqrt(v_hat) + eps)

    params = np.array([2.0])
    assert optim.BETAS == (b1, b2) and optim.EPS == eps
    state = AdamState(1, lr)
    for _ in range(2):
        adam_step(params, np.array([g]), state)
    assert abs(float(params[0]) - w_ref) < 1e-14


def test_gradient_shape_mismatch():
    with pytest.raises(TrainingError, match="shape"):
        adam_step(np.zeros(2), np.zeros(3), AdamState(2, 0.1))
    # moment vectors sized for another arena
    with pytest.raises(TrainingError, match="shape"):
        adam_step(np.zeros(2), np.zeros(2), AdamState(3, 0.1))


def test_step_counter_strictly_increases():
    params = np.ones(1)
    state = AdamState(1, 0.1)
    seen = []
    for _ in range(3):
        adam_step(params, np.full(1, 0.5), state)
        seen.append(state.step)
    assert seen == [1, 2, 3]


def test_flat_step_equals_per_parameter_updates():
    """One update of a store's arena is, bit for bit, one
    `kernels.adam_update` per parameter with its own moment buffers."""
    rng = np.random.default_rng(3)
    shapes = {"scalar": (), "bias": (5,), "weight": (4, 3), "table": (2, 3, 2),
              "empty": (0, 4)}
    store = ParamStore({n: Tensor(rng.normal(size=s), requires_grad=True)
                        for n, s in shapes.items()}, {})
    ref = {n: store[n].data.copy() for n in shapes}
    m = {n: np.zeros(s) for n, s in shapes.items()}
    v = {n: np.zeros(s) for n, s in shapes.items()}
    state = AdamState(store.flat.size, 0.01)
    for step in range(1, 6):
        for n, s in shapes.items():
            # mixed magnitudes and signed zeros in every step's gradient
            g = rng.normal(size=s) * 10.0 ** rng.integers(-8, 3, size=s)
            g = np.where(rng.random(s) < 0.2, -0.0, g)
            store[n].grad[...] = g
            kernels.adam_update(ref[n], g, m[n], v[n], 0.01, 0.9, 0.999, 1e-8, step)
        adam_step(store.flat, store.grad, state)
        for n in shapes:
            assert store[n].data.tobytes() == ref[n].tobytes(), (n, step)
    packed = np.concatenate([ref[n].ravel() for n in shapes])
    assert store.flat.tobytes() == packed.tobytes()
    assert state.m.tobytes() == np.concatenate([m[n].ravel() for n in shapes]).tobytes()
    assert state.v.tobytes() == np.concatenate([v[n].ravel() for n in shapes]).tobytes()
