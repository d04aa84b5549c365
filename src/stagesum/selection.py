"""Content selection: alignment labels, selector head, threshold calibration.

Labels mark source positions whose tokens can be matched to the summary by
repeatedly extracting the longest shared contiguous piece sequence.  The
selector is an encoder of the same architecture family with a per-position
logistic head; its (thresholded) output masks the copy head's logits.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import model as M
from .autodiff import Tensor


class CalibrationError(ValueError):
    pass


def build_labels(source_pieces: list, summary_pieces: list) -> np.ndarray:
    """Greedy longest-shared-n-gram alignment: 0/1 per source piece.

    Repeatedly find the longest contiguous subsequence present in both the
    (remaining) summary and the document, mark the leftmost document
    occurrence, consume the matched summary span, and repeat until no
    shared n-gram of length >= 1 remains.
    """
    if not source_pieces or not summary_pieces:
        raise ValueError("build_labels requires non-empty piece sequences")
    doc = list(source_pieces)
    y = np.zeros(len(doc), dtype=np.int64)
    remaining = [list(summary_pieces)]
    while True:
        best = None  # (length, doc_start, seg_idx, seg_start)
        for si, seg in enumerate(remaining):
            for start in range(len(seg)):
                for ds in range(len(doc)):
                    n = 0
                    while (start + n < len(seg) and ds + n < len(doc)
                           and seg[start + n] == doc[ds + n]):
                        n += 1
                    if n > 0 and (best is None or n > best[0]
                                  or (n == best[0] and ds < best[1])):
                        best = (n, ds, si, start)
        if best is None:
            break
        n, ds, si, start = best
        y[ds:ds + n] = 1
        seg = remaining.pop(si)
        left, right = seg[:start], seg[start + n:]
        if left:
            remaining.append(left)
        if right:
            remaining.append(right)
    return y


def selector_forward(store, encoder_out: Tensor) -> Tensor:
    """Per-position selection probability: sigmoid of a linear head."""
    return ad.sigmoid(ad.linear(encoder_out, store["selector.weight"],
                                store["selector.bias"]))


def selector_probs(store, config, examples) -> list[np.ndarray]:
    """P_sel over each example's non-pad source positions, without a tape;
    each source is encoded cut to its real length."""
    probs = []
    with ad.no_grad():
        for ex in examples:
            n = M.real_length(ex.source_pad_mask)
            pad = ex.source_pad_mask[:n]
            enc = M.encode(store, config, ex.source_ids[:n], pad, None)
            probs.append(selector_forward(store, enc).data[~pad])
    return probs


def selector_loss(pred: Tensor, labels: np.ndarray, pad_mask: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over non-pad positions (probabilities clamped).

    pred and pad_mask are [..., positions]; labels hold the non-pad
    positions' labels, row after row.
    """
    if pred.shape != pad_mask.shape:
        raise ValueError(f"prediction shape {pred.shape} vs mask {pad_mask.shape}")
    valid = ~pad_mask
    if not valid.any():
        raise ValueError("selector_loss: no non-pad positions")
    p = ad.clamp_min(pred[valid], 1e-12)
    q = ad.clamp_min(1.0 - pred[valid], 1e-12)
    yv = labels.astype(np.float64)
    nll = -(Tensor(yv) * ad.log(p) + Tensor(1.0 - yv) * ad.log(q))
    return nll.mean()


def calibrate_threshold(probs: np.ndarray, labels: np.ndarray) -> float:
    """Midpoint between consecutive distinct probabilities maximizing F1.

    Ties break toward the smaller threshold (higher recall).  One sort per
    class counts, for every midpoint at once, the positives and negatives
    above it; F1 follows `metrics.coverage_prf`'s formula.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() == labels.max():
        raise CalibrationError("calibration needs both label classes")
    distinct = np.unique(probs)
    if len(distinct) < 2:
        raise CalibrationError("calibration needs at least two distinct predictions")
    midpoints = (distinct[:-1] + distinct[1:]) / 2.0
    pos, neg = np.sort(probs[labels == 1]), np.sort(probs[labels == 0])
    tp = len(pos) - np.searchsorted(pos, midpoints, side="right")
    fp = len(neg) - np.searchsorted(neg, midpoints, side="right")
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        r = np.where(len(pos) > 0, tp / len(pos), 0.0)
        f1 = np.where(p + r > 0, 2 * p * r / (p + r), 0.0)
    return float(midpoints[np.argmax(f1)])


def selection_mask(values: list, pad_mask: np.ndarray) -> np.ndarray:
    """Boolean [rows, positions] selection mask, pads False.

    values holds one array per row of pad_mask [rows, positions], one truthy
    entry per non-pad position in order: alignment labels, or selector
    probabilities already compared with the threshold.
    """
    counts = (~pad_mask).sum(axis=-1)
    if len(values) != len(counts):
        raise ValueError(f"{len(values)} selection rows vs {len(counts)} examples")
    for row, (v, n) in enumerate(zip(values, counts)):
        if len(v) != n:
            raise ValueError(f"selection row {row}: {len(v)} values vs {n} "
                             "non-pad source positions")
    mask = np.zeros(pad_mask.shape, dtype=bool)
    mask[~pad_mask] = np.concatenate(values).astype(bool)
    return mask
