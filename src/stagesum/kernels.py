"""Hot numeric kernels in NumPy: LCS length, copy scatter and fused Adam.

`python3 perfbench/run.py` times each of them (the `kernels.bench_*`
metrics); perfbench/README.md describes the sizes.
"""

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

    att is [steps, source_positions]; ids maps each source position to a
    vocab id, with negative entries (pad) excluded.  Duplicate ids sum.
    """
    att = np.ascontiguousarray(att, dtype=np.float64)
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    n_steps, n_src = att.shape
    out = np.zeros((n_steps, vocab_size), dtype=np.float64)
    valid = ids >= 0
    if valid.any():
        np.add.at(out.T, ids[valid], att[:, valid].T)
    return out


def scatter_copy_backward(d_out: np.ndarray, ids: np.ndarray, n_src: int) -> np.ndarray:
    d_out = np.ascontiguousarray(d_out, dtype=np.float64)
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    d_att = np.zeros((d_out.shape[0], n_src), dtype=np.float64)
    valid = ids >= 0
    d_att[:, valid] = d_out[:, ids[valid]]
    return d_att


def adam_update(param, grad, m, v, lr, beta1, beta2, eps, step) -> None:
    """In-place fused Adam update with bias correction."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)
