"""Evaluation metrics: ROUGE, abstraction rate, AUC, coverage, Pearson r.

ROUGE is computed on whitespace word tokens after detokenization
(lowercased, punctuation dropped); ROUGE-L uses plain sequence-level LCS.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import kernels


class MetricError(ValueError):
    pass


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def rouge_n(reference: list, hypothesis: list, n: int) -> tuple[float, float, float]:
    """Clipped n-gram overlap precision/recall/F1."""
    if n < 1:
        raise MetricError("n must be >= 1")

    def grams(seq):
        counts: dict = {}
        for i in range(len(seq) - n + 1):
            g = tuple(seq[i:i + n])
            counts[g] = counts.get(g, 0) + 1
        return counts

    ref, hyp = grams(reference), grams(hypothesis)
    overlap = sum(min(c, hyp.get(g, 0)) for g, c in ref.items())
    n_ref = sum(ref.values())
    n_hyp = sum(hyp.values())
    p = overlap / n_hyp if n_hyp else 0.0
    r = overlap / n_ref if n_ref else 0.0
    return p, r, _f1(p, r)


def rouge_l(reference: list, hypothesis: list) -> tuple[float, float, float]:
    """Longest-common-subsequence precision/recall/F1 over whole sequences."""
    if not reference or not hypothesis:
        return 0.0, 0.0, 0.0
    # map tokens to ids so the DP kernel can run on integer arrays
    ids = {}
    a = np.array([ids.setdefault(t, len(ids)) for t in reference], dtype=np.int64)
    b = np.array([ids.setdefault(t, len(ids)) for t in hypothesis], dtype=np.int64)
    lcs = kernels.lcs_length(a, b)
    p = lcs / len(hypothesis)
    r = lcs / len(reference)
    return p, r, _f1(p, r)


@dataclass
class RougeReport:
    rouge1: tuple[float, float, float]
    rouge2: tuple[float, float, float]
    rougeL: tuple[float, float, float]

    def as_dict(self) -> dict[str, float]:
        out = {}
        for name, (p, r, f1) in (("rouge1", self.rouge1), ("rouge2", self.rouge2),
                                 ("rougeL", self.rougeL)):
            out[f"{name}_p"] = p
            out[f"{name}_r"] = r
            out[f"{name}_f1"] = f1
        return out


def rouge_report(references: list[list], hypotheses: list[list]) -> RougeReport:
    """Corpus-mean ROUGE-1/2/L over aligned reference/hypothesis token lists."""
    if len(references) != len(hypotheses):
        raise MetricError("reference and hypothesis counts differ")
    if not references:
        raise MetricError("empty corpus")
    acc = {k: np.zeros(3) for k in ("r1", "r2", "rl")}
    for ref, hyp in zip(references, hypotheses):
        acc["r1"] += rouge_n(ref, hyp, 1)
        acc["r2"] += rouge_n(ref, hyp, 2)
        acc["rl"] += rouge_l(ref, hyp)
    n = len(references)
    return RougeReport(tuple(acc["r1"] / n), tuple(acc["r2"] / n), tuple(acc["rl"] / n))


def abstraction_rate(source_tokens: list, summary_tokens: list) -> float:
    """Percentage of summary tokens absent from the source token set."""
    if not summary_tokens:
        raise MetricError("abstraction_rate requires a non-empty summary")
    src = set(source_tokens)
    novel = sum(1 for t in summary_tokens if t not in src)
    return 100.0 * novel / len(summary_tokens)


def auc(scores, labels) -> dict[str, float]:
    """AUC-ROC (rank statistic with tie correction) and AUC-PR (step curve)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("auc requires both label classes")

    # ROC via the Mann-Whitney U statistic; each run of tied scores gets
    # its average rank
    order = np.argsort(scores, kind="stable")
    first, last = _tie_runs(scores[order])
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    auc_roc = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    # PR: one step per distinct score in descending score order, at the
    # counts up to the end of that score's run, summed in order
    desc = np.argsort(-scores, kind="stable")
    _, last = _tie_runs(scores[desc])
    tp = np.cumsum(labels[desc] == 1)[last]
    recall = tp / n_pos
    auc_pr = np.cumsum(np.diff(recall, prepend=0.0) * (tp / (last + 1)))[-1]
    return {"auc_roc": float(auc_roc), "auc_pr": float(auc_pr)}


def _tie_runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, last) index of each run of equal values in a sorted array."""
    new = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return np.append(0, new), np.append(new - 1, len(ordered) - 1)


def coverage_prf(selected: np.ndarray, labels: np.ndarray
                 ) -> tuple[float, float, float]:
    """Label coverage at the word-piece level.

    True positives are labeled (groundtruth-aligned) pieces that were
    selected; selecting exactly the labels gives perfect precision.
    """
    selected = np.asarray(selected).astype(bool)
    labels = np.asarray(labels).astype(bool)
    if selected.shape != labels.shape:
        raise MetricError("selected and labels length mismatch")
    tp = int((selected & labels).sum())
    fp = int((selected & ~labels).sum())
    fn = int((~selected & labels).sum())
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, _f1(p, r)


def pearson_r(xs, ys) -> float:
    """Sample Pearson correlation coefficient."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) != len(ys) or len(xs) < 2:
        raise MetricError("pearson_r needs two equal-length samples of size >= 2")
    xd = xs - xs.mean()
    yd = ys - ys.mean()
    denom = np.sqrt((xd * xd).sum() * (yd * yd).sum())
    if denom == 0:
        raise MetricError("pearson_r: zero variance")
    return float((xd * yd).sum() / denom)


# every character that is neither alphanumeric (str.isalnum) nor whitespace
# (str.isspace): \w is isalnum() or "_", and \s is isspace()
_DROP = re.compile(r"[^\w\s]|_")


def normalize_for_rouge(text: str) -> list[str]:
    """The lowercased text's whitespace tokens, each kept to its alphanumeric
    characters; tokens left empty (punctuation only) are dropped."""
    return _DROP.sub("", text.lower()).split()


def format_report(values: dict[str, float]) -> str:
    """One named value per line, stable key order."""
    return "".join(f"{k}\t{values[k]!r}\n" for k in sorted(values))
