"""Shared test helpers: finite differences and tiny model builders."""

import numpy as np
import pytest

from stagesum import autodiff as ad
from stagesum.autodiff import Tensor


def finite_diff(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn over array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def grad_of(fn_build, x: np.ndarray) -> np.ndarray:
    """Analytic gradient of scalar fn_build(Tensor(x)) w.r.t. x."""
    t = Tensor(x, requires_grad=True)
    with ad.new_tape():
        out = fn_build(t)
        out.backward()
    return t.grad.copy()


def assert_grad_matches(fn_build, x: np.ndarray, h: float = 1e-6,
                        rtol: float = 1e-4, atol: float = 1e-7):
    """Compare analytic and central-finite-difference gradients."""
    x = np.array(x, dtype=np.float64)
    analytic = grad_of(fn_build, x)

    def value():
        with ad.no_grad():
            return float(fn_build(Tensor(x)).data)

    fd = finite_diff(value, x, h)
    err = np.abs(fd - analytic)
    tol = atol + rtol * np.maximum(np.abs(fd), np.abs(analytic))
    assert (err <= tol).all(), (
        f"gradient mismatch: max abs err {err.max()}, "
        f"worst rel {(err / np.maximum(np.abs(fd), 1e-12)).max()}")


def _extent(a: np.ndarray) -> tuple:
    """(first byte, one past the last byte) of a's memory."""
    bounds = getattr(np.lib, "array_utils", np).byte_bounds
    return bounds(a)


def saved_arrays(nodes) -> list[np.ndarray]:
    """What recorded `nodes` saved for backward: the arrays their gradient
    rules close over, through nested closures, whose memory is not exactly
    a node's or a parent's value's memory.  Extents, not `.base`: a value
    written into a tape's arena is a view of the arena's whole buffer, as
    is every array saved beside it, while the array a value views (a
    projection split into heads) covers the value's extent."""
    values = {_extent(t.data) for node in nodes for t in (node,) + node._parents}
    found, seen, stack = [], set(), [fn for node in nodes for fn in node._grad_fns]
    while stack:
        fn = stack.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for cell in getattr(fn, "__closure__", None) or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                if _extent(value) not in values:
                    found.append(value)
            elif callable(value):
                stack.append(value)
    return found


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="class")
def one_row_attention_blocks():
    """`ad.attention` works one leading row at a time.  Test-sized models
    otherwise always fit in one block.  Class-scoped, so hypothesis tests
    can use it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "_ATTENTION_BLOCK_BYTES", 1)
        yield
