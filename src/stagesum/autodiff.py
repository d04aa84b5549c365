"""Minimal dense-tensor math with reverse-mode automatic differentiation.

Tensors wrap float64 numpy arrays.  Operations on tensors that require
gradients are recorded on the active Tape through `_make`, each with one
gradient rule per parent; Tensor.backward() replays the tape in reverse,
un-broadcasting and accumulating every rule's result into its parent.
Everything is 64-bit; there is no device or dtype story.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Optional

import numpy as np
from scipy.special import erf

from . import kernels


class ShapeError(ValueError):
    pass


class NumericError(ValueError):
    pass


class Tape:
    """Ordered record of recorded operations (tensors in creation order)."""

    def __init__(self):
        self.nodes: list[Tensor] = []


_active_tape: Optional[Tape] = None


@contextmanager
def _install(tape: Optional[Tape]):
    global _active_tape
    prev = _active_tape
    _active_tape = tape
    try:
        yield tape
    finally:
        _active_tape = prev


def no_grad():
    """Record nothing inside the block: no tape is active there."""
    return _install(None)


def new_tape():
    """Install a fresh tape for a forward/backward pass."""
    return _install(Tape())


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fns")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._grad_fns: tuple = ()

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Reverse-replay the active tape from this tensor."""
        if _active_tape is None:
            raise RuntimeError("backward() requires an active tape (use new_tape())")
        self.grad = np.ones_like(self.data)
        reachable = set()
        stack = [self]
        while stack:
            t = stack.pop()
            if id(t) in reachable:
                continue
            reachable.add(id(t))
            stack.extend(t._parents)
        for node in reversed(_active_tape.nodes):
            if id(node) not in reachable or node.grad is None:
                continue
            for parent, grad_fn in zip(node._parents, node._grad_fns):
                if parent.requires_grad or parent._parents:
                    parent._accumulate(_unbroadcast(grad_fn(node.grad), parent.data.shape))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        return _make(self.data + other.data, (self, other), _identity, _identity)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.data, (self,), np.negative)

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __mul__(self, other):
        other = _as_tensor(other)
        return _make(self.data * other.data, (self, other),
                     lambda g: g * other.data, lambda g: g * self.data)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        raise TypeError("tensor division only supports scalars")

    def __getitem__(self, idx):
        def grad(g):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            return full

        return _make(self.data[idx], (self,), grad)

    # -- structural ---------------------------------------------------------

    def reshape(self, *shape):
        return _make(self.data.reshape(*shape), (self,), lambda g: g.reshape(self.data.shape))

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inv = np.argsort(axes)
        return _make(self.data.transpose(axes), (self,), lambda g: g.transpose(inv))

    def swapaxes(self, a, b):
        return _make(self.data.swapaxes(a, b), (self,), lambda g: g.swapaxes(a, b))

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def grad(g):
            if axis is None:
                return np.full_like(self.data, 1.0) * g
            if not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.data.shape).copy()

        return _make(self.data.sum(axis=axis, keepdims=keepdims), (self,), grad)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / n


def _identity(g: np.ndarray) -> np.ndarray:
    return g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple, *grad_fns) -> Tensor:
    """Wrap an op's result and record it on the active tape if any parent
    needs a gradient.  grad_fns[i](g) maps the output gradient g to parent
    i's raw gradient; the replay un-broadcasts it to the parent's shape."""
    out = Tensor(data)
    if _active_tape is not None and any(p.requires_grad or p._parents for p in parents):
        out._parents = parents
        out._grad_fns = grad_fns
        _active_tape.nodes.append(out)
    return out


# -- elementwise nonlinearities ---------------------------------------------


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)
    return _make(e, (x,), lambda g: g * e)


def log(x: Tensor) -> Tensor:
    return _make(np.log(x.data), (x,), lambda g: g / x.data)


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    return _make(s, (x,), lambda g: g * s * (1.0 - s))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))

    def grad(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        return g * (cdf + x.data * pdf)

    return _make(x.data * cdf, (x,), grad)


def clamp_min(x: Tensor, lo: float) -> Tensor:
    return _make(np.maximum(x.data, lo), (x,),
                 lambda g: g * (x.data >= lo).astype(np.float64))


# -- core ops ----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.  Stacked operands broadcast over their batch axes, as
    in np.matmul (e.g. x [B, T, H] @ W [H, K]), gradients included."""
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner extents differ: {a.data.shape} x {b.data.shape}")

    def grad_a(g):
        if b.data.ndim == 1:
            return np.multiply.outer(g, b.data) if g.ndim else g * b.data
        if a.data.ndim == 1:
            return np.matmul(g[..., None, :], b.data.swapaxes(-1, -2))[..., 0, :]
        return np.matmul(g, b.data.swapaxes(-1, -2))

    def grad_b(g):
        if a.data.ndim == 1:
            return a.data[:, None] * g[..., None, :] if g.ndim else a.data * g
        if b.data.ndim == 1:
            return np.matmul(a.data.swapaxes(-1, -2), g[..., None])[..., 0]
        return np.matmul(a.data.swapaxes(-1, -2), g)

    return _make(np.matmul(a.data, b.data), (a, b), grad_a, grad_b)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis."""
    if np.isnan(x.data).any():
        raise NumericError("softmax received NaN input")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def grad(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (g - dot) * y

    return _make(y, (x,), grad)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    if gain.data.shape != x.data.shape[-1:] or bias.data.shape != x.data.shape[-1:]:
        raise ShapeError(
            f"layer_norm gain/bias {gain.data.shape}/{bias.data.shape} "
            f"do not match last extent of {x.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def grad_x(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return inv * (dxhat - m1 - xhat * m2)

    return _make(gain.data * xhat + bias.data, (x, gain, bias), grad_x,
                 lambda g: (g * xhat).reshape(-1, g.shape[-1]).sum(axis=0),
                 lambda g: g.reshape(-1, g.shape[-1]).sum(axis=0))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding matrix; gradients scatter-add back."""
    ids = np.asarray(ids, dtype=np.int64)

    def grad(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        return full

    return _make(table.data[ids], (table,), grad)


def scatter_copy(att: Tensor, source_ids: np.ndarray, vocab_size: int) -> Tensor:
    """Project per-source-position logits att [..., steps, source_positions]
    into vocab space by id scatter-add, with source_ids [..., source_positions].

    source_ids entries < 0 (pad) are excluded.  Duplicate source tokens sum,
    matching a literal product with the one-hot input matrix.
    """
    source_ids = np.asarray(source_ids, dtype=np.int64)
    return _make(kernels.scatter_copy_forward(att.data, source_ids, vocab_size), (att,),
                 lambda g: kernels.scatter_copy_backward(g, source_ids, att.data.shape[-1]))


def dropout_tokens(x: Tensor, rate: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Token-level dropout: whole rows (last-axis vectors) are zeroed together.

    Identity when rng is None (evaluation mode).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    keep = (rng.random(x.data.shape[:-1]) >= rate).astype(np.float64)
    scale = keep[..., None] / (1.0 - rate)
    return _make(x.data * scale, (x,), lambda g: g * scale)

