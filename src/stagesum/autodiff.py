"""Minimal dense-tensor math with reverse-mode automatic differentiation.

Tensors wrap float64 numpy arrays.  Operations on tensors that require
gradients are recorded on the active Tape through `_make`, each with one
gradient rule per parent, built only when the node is recorded;
Tensor.backward() replays the tape in reverse, un-broadcasting and
accumulating every rule's result into its parent.  A parameter of a
`ParamStore` arrives with `.grad` preset to a zeroed view of the store's
gradient arena, so every gradient is added into it; any other tensor's
first gradient is stored as a C-ordered copy and later ones are added to
it, so no intermediate gradient starts as a buffer of zeros.  Once the
replay has run a node's rules, its gradient and the rules are dropped, and
with the rules' closures every reference to what the node saved for
backward (a softmax, a pre-activation, a normalized input); a graph is
replayed only once.  Only leaves keep their gradients; every node keeps
its parents and its value.

While a tape records, the fused ops write their values and what they
save for backward into the tape's `Arena`, a bump allocator (under
`no_grad` they take np.empty arrays).  A tape's activations thus sit in
one buffer until the arena is reset: `training.train_stage` releases each
minibatch's graph and resets one arena before the next forward, so
training holds one graph's activations at a time, in pages it keeps
mapped from one minibatch to the next.

The model's hot spots are fused into single nodes: `linear` (x @ W + b);
`split_heads` (a projection split into attention heads); `merge_heads`
(the heads merged and projected); `ffn` (linear, erf-GELU, linear);
`residual_norm` (layer_norm(x + out * dropout scales)); self-attention as
`attention` (softmax(q kᵀ · scale + mask) @ v), which works through blocks
of leading rows small enough for a core's cache and saves only the
softmax; and cross-attention as `attention_scores` (q kᵀ · scale + mask)
followed by `softmax_matmul` (softmax(s) @ v), since its scores also feed
the copy logits.  Each fused rule reuses the unfused chain's expressions
and forms its internal gradients in the layout the unfused replay stored
them in, so values and gradients keep their bits.  Everything is 64-bit;
there is no device or dtype story.

The FFN's exact GELU needs scipy's `erf`, and only that.  Importing
`scipy.special` for it would initialize the whole package (hundreds of
modules, and a second OpenBLAS beside NumPy's, ~20 MB of resident memory
in every stage's process), so `_bind_erf` loads only the extension module
that defines the ufunc, `scipy/special/_special_ufuncs`, and registers it
under its own name: `erf` is the very object `scipy.special.erf` is, and a
later `import scipy.special` reuses the module.  Where that file or its
`erf` is missing (scipy releases with another layout), it falls back to
`from scipy.special import erf`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from contextlib import contextmanager
from typing import Optional

import numpy as np

from . import kernels


_ERF_MODULE = "scipy.special._special_ufuncs"


def _bind_erf(scipy_dirs: list[str]):
    """scipy's `erf` ufunc: from the `scipy.special._special_ufuncs` module
    if it is already imported, else loaded from its file under one of
    `scipy_dirs` (the scipy package's search path), else from
    `scipy.special`."""
    module = sys.modules.get(_ERF_MODULE)
    paths = [os.path.join(d, "special", "_special_ufuncs" + suffix)
             for d in scipy_dirs for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next(filter(os.path.isfile, paths), None)
    if module is None and path is not None:
        spec = importlib.util.spec_from_file_location(_ERF_MODULE, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_ERF_MODULE] = module
        spec.loader.exec_module(module)
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


erf = _bind_erf(getattr(importlib.util.find_spec("scipy"), "submodule_search_locations",
                        None) or [])


class ShapeError(ValueError):
    pass


class NumericError(ValueError):
    pass


# float64 elements per 64 bytes, the cache line every arena array starts on
_LINE = 8


def _aligned(size: int) -> tuple[np.ndarray, int]:
    """A new float64 array with room for `size` elements from a 64-byte
    boundary on, and the index of that boundary."""
    owner = np.empty(size + _LINE - 1)
    return owner, (-owner.ctypes.data % (8 * _LINE)) // 8


class Arena:
    """Bump allocator of one graph's float64 arrays at a time.

    `empty(shape)` hands out a C-ordered slice of one flat buffer, starting
    on a 64-byte boundary.  An array the buffer has no room left for goes
    to the last overflow chunk, or to a new one that holds everything
    handed out since the last reset, so chunks double and a graph takes few
    of them.  `reset()` makes the whole buffer free for the next graph; if
    chunks were taken, it first replaces the buffer and the chunks with one
    buffer as large as everything handed out since the last reset.  A run
    of graphs of varying size thus settles into the largest graph's memory,
    with no chunk size to tune, and its pages stay mapped from one graph to
    the next.  A buffer that an array handed out still views at reset() (a
    graph that an exception's traceback holds) is left to that array.

    Doubling chunks matter beyond their count: glibc's malloc raises its
    mmap and trim thresholds only when it frees a block above them, and a
    graph's largest chunk, freed at the first merge, lifts them above the
    backward pass's temporaries.  With one chunk per array, a shortform
    minibatch's backward took ~1,100 minor faults, its freed temporaries
    trimmed from the heap and faulted back in."""

    def __init__(self):
        self._capacity = 0      # elements the buffer holds
        self._used = 0          # elements handed out since the reset, padding included
        owner, self._first = _aligned(0)
        self._owners = [owner]  # the arrays the buffer and then the chunks are
        # the free elements [next, end) of the buffer and of the last chunk
        self._free = [[self._first, self._first], [0, 0]]

    def empty(self, shape: tuple) -> np.ndarray:
        """A C-ordered float64 array of `shape`, contents undefined."""
        n = math.prod(shape)
        size = -(-n // _LINE) * _LINE
        self._used += size
        for owner, free in zip((self._owners[0], self._owners[-1]), self._free):
            if free[0] + size <= free[1]:
                break
        else:   # free is the last chunk's: a new chunk takes its place
            owner, start = _aligned(self._used)
            self._owners.append(owner)
            free[:] = start, start + self._used
        start = free[0]
        free[0] += size
        return owner[start:start + n].reshape(shape)

    def reset(self) -> None:
        """Free every array handed out for the next graph, merging the
        buffer and the chunks into one high-water-sized buffer; a new one
        if an array handed out is still referenced."""
        # an owner's references here: the list, the generator and the call;
        # each array handed out holds one more (its .base)
        if len(self._owners) > 1 or any(sys.getrefcount(b) > 3 for b in self._owners):
            self._capacity = max(self._capacity, self._used)
            owner, self._first = _aligned(self._capacity)
            self._owners = [owner]
        self._free = [[self._first, self._first + self._capacity], [0, 0]]
        self._used = 0


class Tape:
    """Ordered record of recorded operations (tensors in creation order),
    and the arena the ops write their results into while it is active."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.arena = Arena()


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


def _empty(shape: tuple) -> np.ndarray:
    """A new float64 array for an op's forward result: from the active
    tape's arena while recording, else from np.empty."""
    return np.empty(shape) if _active_tape is None else _active_tape.arena.empty(shape)


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
        # The first gradient is copied, never stored as is: g may be a view
        # of another tensor's gradient, which a later += would then change.
        # C order, not g's strides: other strides send later matmuls down
        # another BLAS path, which can change their last bits.
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def backward(self):
        """Reverse-replay the active tape from this tensor, once: the replay
        drops each node's rules after running them, so a backward() that
        reaches a node an earlier one replayed (parents but no rules) raises
        RuntimeError.  Values and saved arrays in the tape's arena stay
        there until the caller releases the graph and resets the arena."""
        if _active_tape is None:
            raise RuntimeError("backward() requires an active tape (use new_tape())")
        reachable = set()
        stack = [self]
        while stack:
            t = stack.pop()
            if id(t) in reachable:
                continue
            if t._parents and not t._grad_fns:
                raise RuntimeError("backward() through a spent graph: an earlier "
                                   "backward() replayed it and freed its saved arrays")
            reachable.add(id(t))
            stack.extend(t._parents)
        self.grad = np.ones_like(self.data)
        for node in reversed(_active_tape.nodes):
            if id(node) not in reachable or node.grad is None:
                continue
            for parent, grad_fn in zip(node._parents, node._grad_fns):
                if parent.requires_grad or parent._parents:
                    parent._accumulate(_unbroadcast(grad_fn(node.grad), parent.data.shape))
            # spent: a recorded node is interior (leaves are never recorded),
            # and its rules were the last readers of the gradient and of
            # everything the node saved for backward
            node.grad = None
            node._grad_fns = ()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        return _make(self.data + other.data, (self, other), _identities)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.data, (self,), _negation)

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __mul__(self, other):
        other = _as_tensor(other)
        return _make(self.data * other.data, (self, other),
                     lambda: (lambda g: g * other.data, lambda g: g * self.data))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        raise TypeError("tensor division only supports scalars")

    def __getitem__(self, idx):
        return _make(self.data[idx], (self,), lambda: (lambda g: _add_at(self.data, idx, g),))

    # -- structural ---------------------------------------------------------

    def reshape(self, *shape):
        return _make(self.data.reshape(*shape), (self,),
                     lambda: (lambda g: g.reshape(self.data.shape),))

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inv = np.argsort(axes)
        return _make(self.data.transpose(axes), (self,), lambda: (lambda g: g.transpose(inv),))

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def rules():
            def grad(g):
                if axis is None:
                    return np.full_like(self.data, 1.0) * g
                if not keepdims:
                    g = np.expand_dims(g, axis)
                return np.broadcast_to(g, self.data.shape).copy()
            return (grad,)

        return _make(self.data.sum(axis=axis, keepdims=keepdims), (self,), rules)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / n


def _identity(g: np.ndarray) -> np.ndarray:
    return g


def _identities():
    return _identity, _identity


def _negation():
    return (np.negative,)


def _add_at(like: np.ndarray, idx, g: np.ndarray) -> np.ndarray:
    """Zeros shaped like `like` with g scatter-added at idx."""
    full = np.zeros_like(like)
    np.add.at(full, idx, g)
    return full


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple, rules) -> Tensor:
    """Wrap an op's result and record it on the active tape if any parent
    needs a gradient.  rules() returns one gradient rule per parent and is
    called only for a recorded node, so no rule is built under `no_grad`:
    rule i maps the output gradient g to parent i's raw gradient, and the
    replay un-broadcasts it to the parent's shape."""
    out = Tensor(data)
    if _active_tape is not None and any(p.requires_grad or p._parents for p in parents):
        out._parents = parents
        out._grad_fns = rules()
        _active_tape.nodes.append(out)
    return out


def _joint_rules(parents: tuple, grads):
    """One rule per parent of a node whose parents' gradients come from one
    pass: grads(g) returns a gradient for every parent.  The replay's first
    call runs the pass for the parents that need a gradient and each rule
    takes its own; the replay runs the rules once and then drops them."""
    need = [p.requires_grad or bool(p._parents) for p in parents]
    pending = {}

    def rule(i):
        def grad(g):
            if not pending:
                pending.update((j, d) for j, d in enumerate(grads(g)) if need[j])
            return pending.pop(i)
        return grad
    return tuple(rule(i) for i in range(len(parents)))


# -- elementwise nonlinearities ---------------------------------------------


def log(x: Tensor) -> Tensor:
    return _make(np.log(x.data), (x,), lambda: (lambda g: g / x.data,))


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    return _make(s, (x,), lambda: (lambda g: g * s * (1.0 - s),))


def clamp_min(x: Tensor, lo: float) -> Tensor:
    return _make(np.maximum(x.data, lo), (x,),
                 lambda: (lambda g: g * (x.data >= lo).astype(np.float64),))


# -- core ops ----------------------------------------------------------------


def _check_inner(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")


def _matmul_rules(a: np.ndarray, b: np.ndarray):
    """The gradient rules of np.matmul(a, b) for a and for b."""
    def grad_a(g):
        if b.ndim == 1:
            return np.multiply.outer(g, b) if g.ndim else g * b
        if a.ndim == 1:
            return np.matmul(g[..., None, :], b.swapaxes(-1, -2))[..., 0, :]
        return np.matmul(g, b.swapaxes(-1, -2))

    def grad_b(g):
        if a.ndim == 1:
            return a[:, None] * g[..., None, :] if g.ndim else a * g
        if b.ndim == 1:
            return np.matmul(a.swapaxes(-1, -2), g[..., None])[..., 0]
        return np.matmul(a.swapaxes(-1, -2), g)

    return grad_a, grad_b


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: x [..., n] projected by w [n, k] (or [n]) plus a
    bias that broadcasts to the product's shape, added in place.  Same values
    and gradients as a matmul node followed by `+`; w's and b's gradients sum
    over x's row axes."""
    return _make(_affine(x.data, w.data, b.data), (x, w, b),
                 lambda: _matmul_rules(x.data, w.data) + (_identity,))


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`linear`'s forward: x @ w + b, the bias added in place."""
    _check_inner(x, w)
    if w.ndim <= 2:
        shape = x.shape[:-1] + w.shape[1:]
    elif x.ndim == 1:
        shape = w.shape[:-2] + w.shape[-1:]
    else:
        shape = np.broadcast_shapes(x.shape[:-2], w.shape[:-2]) + (x.shape[-2], w.shape[-1])
    y = np.matmul(x, w, out=_empty(shape))
    y += b
    return y


def _affine_grads(x: np.ndarray, w: np.ndarray, g: np.ndarray) -> tuple:
    """`linear`'s gradients for x, w and b from a C-ordered g, before the
    replay un-broadcasts them."""
    grad_x, grad_w = _matmul_rules(x, w)
    return grad_x(g), grad_w(g), g


def split_heads(x: Tensor, w: Tensor, b: Tensor, heads: int) -> Tensor:
    """`linear(x, w, b)` [..., steps, k] split into heads as one node:
    [..., heads, steps, k // heads], a view of the projection.  The
    gradient is gathered back into a new C-ordered [..., steps, k] array, the
    layout the unfused chain's replay copied it to (reshape, swapaxes), and
    then runs `linear`'s rules."""
    y = _affine(x.data, w.data, b.data)
    if y.ndim < 2 or y.shape[-1] % heads:
        raise ShapeError(f"{heads} heads over a projection of shape {y.shape}")
    split = y.shape[:-1] + (heads, y.shape[-1] // heads)

    def grads(g):
        gy = np.empty(y.shape)
        gy.reshape(split)[...] = g.swapaxes(-3, -2)
        return _affine_grads(x.data, w.data, gy)

    return _make(y.reshape(split).swapaxes(-3, -2), (x, w, b),
                 lambda: _joint_rules((x, w, b), grads))


def merge_heads(ctx: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Heads ctx [..., heads, steps, d] merged into [..., steps, heads * d]
    and projected, `linear(merged, w, b)`, as one node.  The merged input is
    the copy the unfused reshape made; ctx's gradient is `linear`'s input
    gradient split back into heads."""
    if ctx.data.ndim < 3:
        raise ShapeError(f"merge_heads over {ctx.data.shape}: no heads axis")
    split = ctx.data.swapaxes(-3, -2)
    merged = split.reshape(split.shape[:-2] + (-1,))

    def grads(g):
        g_merged, g_w, g_b = _affine_grads(merged, w.data, g)
        return g_merged.reshape(split.shape).swapaxes(-3, -2), g_w, g_b

    return _make(_affine(merged, w.data, b.data), (ctx, w, b),
                 lambda: _joint_rules((ctx, w, b), grads))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def ffn(x: Tensor, w_in: Tensor, b_in: Tensor, w_out: Tensor, b_out: Tensor) -> Tensor:
    """linear(gelu(linear(x, w_in, b_in)), w_out, b_out) as one node, with
    the exact (erf-based) GELU.  It saves the hidden pre-activation and the
    GELU's normal CDF, and rebuilds the activation from them in backward;
    every value and gradient is the unfused chain's expression."""
    h = _affine(x.data, w_in.data, b_in.data)
    cdf = np.multiply(h, _INV_SQRT2, out=_empty(h.shape))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def grads(g):
        g_act, g_w_out, g_b_out = _affine_grads(h * cdf, w_out.data, g)
        pdf = _INV_SQRT2PI * np.exp(-0.5 * h * h)
        return _affine_grads(x.data, w_in.data, g_act * (cdf + h * pdf)) + (g_w_out, g_b_out)

    return _make(_affine(h * cdf, w_out.data, b_out.data), (x, w_in, b_in, w_out, b_out),
                 lambda: _joint_rules((x, w_in, b_in, w_out, b_out), grads))


def _softmax(x: np.ndarray, axis: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(x - max) / sum, into a new buffer or into `out` (x itself for an
    in-place softmax).  A non-finite row maximum raises NumericError: NaN
    propagates through max, and an infinite one makes inf - inf = NaN."""
    top = x.max(axis=axis, keepdims=True)
    if not np.isfinite(top).all():
        raise NumericError("softmax received a NaN or infinite row maximum")
    e = np.subtract(x, top, out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_grad(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    out = g * y
    dot = out.sum(axis=axis, keepdims=True)
    np.subtract(g, dot, out=out)
    out *= y
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis."""
    y = _softmax(x.data, axis)
    return _make(y, (x,), lambda: (lambda g: _softmax_grad(g, y, axis),))


def attention_scores(q: Tensor, k: Tensor, scale: float, mask_add=None) -> Tensor:
    """Attention logits q kᵀ · scale (+ mask_add) as one node, for queries
    q [..., steps, d] and keys k [..., keys, d]; mask_add is a constant array
    that broadcasts to the shape of q kᵀ.  The gradient rules are the
    unfused chain's expressions (matmul, then * scale, then + mask)."""
    kt = k.data.swapaxes(-1, -2)
    s = np.matmul(q.data, kt)
    s *= scale
    if mask_add is not None:
        s += mask_add

    def rules():
        grad_q, grad_kt = _matmul_rules(q.data, kt)
        return lambda g: grad_q(g * scale), lambda g: grad_kt(g * scale).swapaxes(-1, -2)

    return _make(s, (q, k), rules)


def softmax_matmul(s: Tensor, v: Tensor) -> Tensor:
    """softmax(s) @ v as one node, the softmax over s's last axis (NaN input
    raises NumericError): attention weights applied to values
    v [..., keys, d].  Backward reuses the saved softmax output."""
    y = _softmax(s.data, -1)

    def rules():
        grad_y, grad_v = _matmul_rules(y, v.data)
        return lambda g: _softmax_grad(_unbroadcast(grad_y(g), y.shape), y, -1), grad_v

    return _make(np.matmul(y, v.data), (s, v), rules)


# The largest [rows, ..., queries, keys] block of scores `attention` makes at
# once: under a core's L2 cache.
_ATTENTION_BLOCK_BYTES = 512 * 1024


def _row_blocks(shape: tuple) -> list[slice]:
    """Slices of axis 0 of a float64 array of `shape`, each block of rows
    within _ATTENTION_BLOCK_BYTES (one row at least)."""
    row_bytes = 8 * math.prod(shape[1:])
    step = max(1, _ATTENTION_BLOCK_BYTES // max(row_bytes, 1))
    return [slice(i, i + step) for i in range(0, shape[0], step)]


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float, mask_add=None) -> Tensor:
    """softmax(q kᵀ · scale + mask_add) @ v as one node, for queries
    q [rows, ..., steps, d], keys k [rows, ..., keys, d] and values
    v [rows, ..., keys, dv] with the same leading axes; mask_add is a
    constant array that broadcasts to q kᵀ's shape.

    It works through blocks of leading rows (`_row_blocks`): each block's
    scores become its softmax in place, and that softmax is all the node
    saves, so no whole-batch scores or score gradient exist.  Rows are
    independent and each block runs the pair's expressions, so values and
    gradients equal `softmax_matmul(attention_scores(q, k, scale, mask_add),
    v)` bit for bit.  A NaN or infinite row maximum raises NumericError."""
    qd, kd, vd = q.data, k.data, v.data
    if not (qd.ndim >= 3 and qd.shape[:-2] == kd.shape[:-2] == vd.shape[:-2]
            and qd.shape[-1] == kd.shape[-1] and kd.shape[-2] == vd.shape[-2]):
        raise ShapeError(f"attention over q {qd.shape}, k {kd.shape}, v {vd.shape}")
    kt = kd.swapaxes(-1, -2)
    y = _empty(qd.shape[:-1] + kd.shape[-2:-1])
    mask = None if mask_add is None else np.broadcast_to(mask_add, y.shape)
    out = _empty(qd.shape[:-1] + vd.shape[-1:])
    for b in _row_blocks(y.shape):
        s = np.matmul(qd[b], kt[b], out=y[b])
        s *= scale
        if mask is not None:
            s += mask[b]
        _softmax(s, -1, out=s)
        np.matmul(s, vd[b], out=out[b])

    def grads(g):
        dq, dk, dv = np.empty(qd.shape), np.empty(kd.shape), np.empty(vd.shape)
        for b in _row_blocks(y.shape):
            ds = _softmax_grad(np.matmul(g[b], vd[b].swapaxes(-1, -2)), y[b], -1)
            ds *= scale
            np.matmul(ds, kd[b], out=dq[b])
            dk[b] = np.matmul(qd[b].swapaxes(-1, -2), ds).swapaxes(-1, -2)
            np.matmul(y[b].swapaxes(-1, -2), g[b], out=dv[b])
        return dq, dk, dv

    return _make(out, (q, k, v), lambda: _joint_rules((q, k, v), grads))


def residual_norm(x: Tensor, out: Tensor, scale: Optional[np.ndarray], gain: Tensor,
                  bias: Tensor) -> Tensor:
    """layer_norm(x + out * scale) as one node: a residual sublayer, x plus
    its output `out` times the constant dropout scales (None: no dropout),
    normalized over the last axis to zero mean and unit variance (+1e-12),
    then scaled by gain and shifted by bias.  x and out get the sum's
    gradient, out's times the scales."""
    if gain.data.shape != x.data.shape[-1:] or bias.data.shape != x.data.shape[-1:]:
        raise ShapeError(
            f"layer_norm gain/bias {gain.data.shape}/{bias.data.shape} "
            f"do not match last extent of {x.data.shape}"
        )
    s = x.data + (out.data if scale is None else out.data * scale)
    # x.mean and x.var's own arithmetic, with x - mu formed once
    n = s.shape[-1]
    xhat = np.subtract(s, np.add.reduce(s, axis=-1, keepdims=True) / n,
                       out=_empty(s.shape))
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + 1e-12)
    xhat *= inv

    def grads(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        g_sum = inv * (dxhat - m1 - xhat * m2)
        return (g_sum, g_sum if scale is None else g_sum * scale,
                (g * xhat).reshape(-1, g.shape[-1]).sum(axis=0),
                g.reshape(-1, g.shape[-1]).sum(axis=0))

    y = np.multiply(gain.data, xhat, out=_empty(xhat.shape))
    y += bias.data
    return _make(y, (x, out, gain, bias),
                 lambda: _joint_rules((x, out, gain, bias), grads))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding matrix; gradients scatter-add back."""
    ids = np.asarray(ids, dtype=np.int64)
    return _make(table.data[ids], (table,), lambda: (lambda g: _add_at(table.data, ids, g),))


def scatter_copy(att: Tensor, source_ids: np.ndarray, vocab_size: int) -> Tensor:
    """Project per-source-position logits att [..., steps, source_positions]
    into vocab space by id scatter-add, with source_ids [..., source_positions].

    source_ids entries < 0 (pad) are excluded.  Duplicate source tokens sum,
    matching a literal product with the one-hot input matrix.
    """
    source_ids = np.asarray(source_ids, dtype=np.int64)
    return _make(kernels.scatter_copy_forward(att.data, source_ids, vocab_size), (att,),
                 lambda: (lambda g: kernels.scatter_copy_backward(
                     g, source_ids, att.data.shape[-1]),))
