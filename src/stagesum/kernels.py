"""Hot numeric kernels in NumPy: LCS length, copy scatter and fused Adam.

`python3 perfbench/run.py` times each of them (the `kernels.bench_*`
metrics); perfbench/README.md describes the sizes.
"""

import math

import numpy as np


def lcs_length(a, b) -> int:
    """Length of the longest common subsequence of two id sequences."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0
    prev = np.zeros(lb + 1, dtype=np.int64)
    cur = np.zeros(lb + 1, dtype=np.int64)
    for i in range(la):
        ai = a[i]
        for j in range(lb):
            if ai == b[j]:
                cur[j + 1] = prev[j] + 1
            else:
                cur[j + 1] = max(prev[j + 1], cur[j])
        prev, cur = cur, prev
    return int(prev[lb])


def scatter_copy_forward(att: np.ndarray, ids: np.ndarray, vocab_size: int) -> np.ndarray:
    """Scatter-add per-step source-position logits into vocab space.

    att is [..., steps, source_positions] and ids [..., source_positions]
    (broadcast over att's leading axes); ids maps each row's source
    positions to vocab ids, with negative entries (pad) excluded.
    Duplicate ids sum, in source order.
    """
    att = np.ascontiguousarray(att, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    cells = math.prod(att.shape[:-1])           # one output row per (row, step)
    flat = ids[..., None, :] + (vocab_size * np.arange(cells)).reshape(att.shape[:-1] + (1,))
    valid = np.broadcast_to(ids[..., None, :] >= 0, att.shape)
    # bincount adds each cell's weights in input order, i.e. in source order
    out = np.bincount(flat[valid], weights=att[valid], minlength=cells * vocab_size)
    return out.reshape(att.shape[:-1] + (vocab_size,))


def scatter_copy_backward(d_out: np.ndarray, ids: np.ndarray, n_src: int) -> np.ndarray:
    """Gradient of `scatter_copy_forward` w.r.t. att: d_att [..., steps,
    n_src] reads d_out [..., steps, vocab] at each position's id, 0 at pads."""
    d_out = np.ascontiguousarray(d_out, dtype=np.float64)
    ids = np.broadcast_to(np.asarray(ids, dtype=np.int64), d_out.shape[:-2] + (n_src,))
    valid = (ids >= 0)[..., None, :]
    taken = np.take_along_axis(d_out, np.maximum(ids, 0)[..., None, :], axis=-1)
    return np.where(valid, taken, 0.0)


def adam_update(param, grad, m, v, lr, b1, b2, eps, step) -> None:
    """In-place fused Adam update with bias correction (moment decays b1, b2)."""
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**step)
    v_hat = v / (1.0 - b2**step)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)
