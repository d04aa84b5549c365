"""Minimal dense-tensor math with reverse-mode automatic differentiation.

Tensors wrap float64 numpy arrays.  Operations on tensors that require
gradients are recorded on the active Tape; Tensor.backward() replays the
tape in reverse.  Everything is 64-bit; there is no device or dtype story.
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

    def record(self, t: "Tensor"):
        self.nodes.append(t)


_active_tape: Optional[Tape] = None
_grad_enabled = True


@contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def new_tape():
    """Install a fresh tape for a forward/backward pass."""
    global _active_tape
    prev = _active_tape
    tape = Tape()
    _active_tape = tape
    try:
        yield tape
    finally:
        _active_tape = prev


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
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

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
            if id(node) in reachable and node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        out = _make(self.data + other.data, (self, other))
        if out._parents:

            def bw(g):
                if self.requires_grad or self._parents:
                    self._accumulate(_unbroadcast(g, self.data.shape))
                if other.requires_grad or other._parents:
                    other._accumulate(_unbroadcast(g, other.data.shape))

            out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _make(-self.data, (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __mul__(self, other):
        other = _as_tensor(other)
        out = _make(self.data * other.data, (self, other))
        if out._parents:

            def bw(g):
                if self.requires_grad or self._parents:
                    self._accumulate(_unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad or other._parents:
                    other._accumulate(_unbroadcast(g * self.data, other.data.shape))

            out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        raise TypeError("tensor division only supports scalars")

    def __getitem__(self, idx):
        out = _make(self.data[idx], (self,))
        if out._parents:

            def bw(g):
                full = np.zeros_like(self.data)
                np.add.at(full, idx, g)
                self._accumulate(full)

            out._backward = bw
        return out

    # -- structural ---------------------------------------------------------

    def reshape(self, *shape):
        out = _make(self.data.reshape(*shape), (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(g.reshape(self.data.shape))
        return out

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inv = np.argsort(axes)
        out = _make(self.data.transpose(axes), (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(g.transpose(inv))
        return out

    def swapaxes(self, a, b):
        out = _make(self.data.swapaxes(a, b), (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(g.swapaxes(a, b))
        return out

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out._parents:

            def bw(g):
                if axis is None:
                    self._accumulate(np.full_like(self.data, 1.0) * g)
                else:
                    if not keepdims:
                        g = np.expand_dims(g, axis)
                    self._accumulate(np.broadcast_to(g, self.data.shape).copy())

            out._backward = bw
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / n


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and _active_tape is not None and any(
        p.requires_grad or p._parents for p in parents
    ):
        out._parents = parents
        _active_tape.record(out)
    return out


# -- elementwise nonlinearities ---------------------------------------------


def exp(x: Tensor) -> Tensor:
    out = _make(np.exp(x.data), (x,))
    if out._parents:
        out._backward = lambda g: x._accumulate(g * out.data)
    return out


def log(x: Tensor) -> Tensor:
    out = _make(np.log(x.data), (x,))
    if out._parents:
        out._backward = lambda g: x._accumulate(g / x.data)
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = _make(s, (x,))
    if out._parents:
        out._backward = lambda g: x._accumulate(g * s * (1.0 - s))
    return out


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = _make(x.data * cdf, (x,))
    if out._parents:

        def bw(g):
            pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
            x._accumulate(g * (cdf + x.data * pdf))

        out._backward = bw
    return out


def clamp_min(x: Tensor, lo: float) -> Tensor:
    out = _make(np.maximum(x.data, lo), (x,))
    if out._parents:
        mask = (x.data >= lo).astype(np.float64)
        out._backward = lambda g: x._accumulate(g * mask)
    return out


# -- core ops ----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; supports stacked (batched) operands with equal batch dims."""
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner extents differ: {a.data.shape} x {b.data.shape}")
    out = _make(np.matmul(a.data, b.data), (a, b))
    if out._parents:

        def bw(g):
            if a.requires_grad or a._parents:
                if b.data.ndim == 1:
                    da = np.multiply.outer(g, b.data) if g.ndim else g * b.data
                else:
                    da = np.matmul(g if g.ndim > 1 else g[None, :], b.data.swapaxes(-1, -2))
                    if g.ndim == 1:
                        da = da[0]
                a._accumulate(_unbroadcast(np.asarray(da).reshape(a.data.shape), a.data.shape))
            if b.requires_grad or b._parents:
                if a.data.ndim == 1:
                    db = np.multiply.outer(a.data, g) if g.ndim else a.data * g
                else:
                    gg = g if g.ndim > 1 else g[:, None]
                    db = np.matmul(a.data.swapaxes(-1, -2), gg)
                    if b.data.ndim == 1:
                        db = db[:, 0]
                b._accumulate(_unbroadcast(np.asarray(db).reshape(b.data.shape), b.data.shape))

        out._backward = bw
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis."""
    if np.isnan(x.data).any():
        raise NumericError("softmax received NaN input")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _make(y, (x,))
    if out._parents:

        def bw(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            x._accumulate((g - dot) * y)

        out._backward = bw
    return out


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
    out = _make(gain.data * xhat + bias.data, (x, gain, bias))
    if out._parents:

        def bw(g):
            if bias.requires_grad or bias._parents:
                bias._accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0))
            if gain.requires_grad or gain._parents:
                gain._accumulate((g * xhat).reshape(-1, g.shape[-1]).sum(axis=0))
            if x.requires_grad or x._parents:
                dxhat = g * gain.data
                m1 = dxhat.mean(axis=-1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
                x._accumulate(inv * (dxhat - m1 - xhat * m2))

        out._backward = bw
    return out


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding matrix; gradients scatter-add back."""
    ids = np.asarray(ids, dtype=np.int64)
    out = _make(table.data[ids], (table,))
    if out._parents:

        def bw(g):
            full = np.zeros_like(table.data)
            np.add.at(full, ids, g)
            table._accumulate(full)

        out._backward = bw
    return out


def scatter_copy(att: Tensor, source_ids: np.ndarray, vocab_size: int) -> Tensor:
    """Project per-source-position logits into vocab space by id scatter-add.

    source_ids entries < 0 (pad) are excluded.  Duplicate source tokens sum,
    matching a literal product with the one-hot input matrix.
    """
    source_ids = np.asarray(source_ids, dtype=np.int64)
    out = _make(kernels.scatter_copy_forward(att.data, source_ids, vocab_size), (att,))
    if out._parents:
        n_src = att.data.shape[1]
        out._backward = lambda g: att._accumulate(
            kernels.scatter_copy_backward(g, source_ids, n_src)
        )
    return out


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
    out = _make(x.data * scale, (x,))
    if out._parents:
        out._backward = lambda g: x._accumulate(g * scale)
    return out

