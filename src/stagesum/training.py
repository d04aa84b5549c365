"""MLE training loops with dev-based model selection.

Three stage kinds share one loop: "denoise" (masked-token pretraining of
the encoder through the tied embeddings), "summarize" (teacher-forced
seq2seq), and "select" (logistic training of the content selector).  Each
minibatch is one graph over the stacked examples, cut to its longest real
source and target, and one backward pass; its dropout masks are the ones a
per-example loop drawing from the same generator would have drawn.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import metrics
from . import model as M
from . import search
from . import selection as sel
from .autodiff import Tensor
from .checkpoint import ParamStore, init_random
from .optim import AdamState, adam_step
from .tokenizer import MASK, EncodedExample, Vocabulary, detokenize

CLAMP_FLOOR = 1e-30


class StageError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    lr: float = 2e-5
    dropout: float = 0.3
    batch_size: int = 8
    max_epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")


@dataclass
class TrainReport:
    records: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_metric: float = -np.inf
    # a select stage's pooled dev probabilities at the best epoch, the ones
    # best_metric scored (out of `format`; run_select_train calibrates on them)
    best_dev_probs: Optional[np.ndarray] = None
    # wall-clock seconds and training health, kept out of `format` so the
    # report stays reproducible: the dev score before training, and one
    # record per epoch (its target tokens are the loss's terms: non-pad
    # target tokens, masked positions or labelled source positions; its
    # gradient norm is the pre-update global L2 norm, averaged over batches;
    # its process_peak_rss_mb is the process's ru_maxrss after the epoch,
    # which an earlier stage of the same process may have set; its rss_mb
    # is the resident size at the epoch's end and its minor_faults the
    # minor page faults its training took, both this stage's own)
    initial_dev_eval_s: float = 0.0
    timings: list[dict] = field(default_factory=list)

    def format(self) -> str:
        lines = []
        for rec in self.records:
            parts = [f"{k}={rec[k]!r}" for k in sorted(rec)]
            lines.append(" ".join(parts))
        lines.append(f"best_epoch={self.best_epoch} best_metric={self.best_metric!r}")
        return "\n".join(lines) + "\n"


def mle_loss(probs: Tensor, target_ids: np.ndarray,
             target_pad_mask: np.ndarray) -> tuple[Tensor, int]:
    """Mean negative log likelihood of targets over non-pad positions.

    probs is [..., steps, vocab] and the targets [..., steps]; every row
    needs a non-pad target.  Returns (scalar loss, count of non-pad
    positions).  Probabilities below 1e-30 are clamped.
    """
    if not (~target_pad_mask).any(axis=-1).all():
        raise StageError("mle_loss: no non-pad target positions")
    valid = np.nonzero(~target_pad_mask)
    picked = probs[valid + (target_ids[valid],)]
    nll = -ad.log(ad.clamp_min(picked, CLAMP_FLOOR))
    return nll.mean(), len(valid[0])


def _mask_tokens(ids: np.ndarray, pad_mask: np.ndarray, vocab_size: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """BERT-style corruption: 15% of non-pad positions, 80/10/10 split."""
    positions = np.flatnonzero(~pad_mask)
    picked = positions[rng.random(len(positions)) < 0.15]
    corrupted = ids.copy()
    action = rng.random(len(picked))
    for pos, a in zip(picked, action):
        if a < 0.8:
            corrupted[pos] = MASK
        elif a < 0.9:
            corrupted[pos] = int(rng.integers(5, vocab_size))
    return corrupted, picked


def _resident_mb() -> Optional[float]:
    """This process's resident size now, in MB (/proc/self/statm; None
    where there is no /proc)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as f:
            pages = int(f.read().split()[1])
    except FileNotFoundError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _stack(examples: list) -> EncodedExample:
    """The examples' arrays stacked into [rows, ·] arrays."""
    return EncodedExample(**{f.name: np.stack([getattr(ex, f.name) for ex in examples])
                             for f in dataclasses.fields(EncodedExample)})


def _cut(batch: EncodedExample) -> tuple[EncodedExample, tuple[int, int]]:
    """batch cut to its longest real source and target (pads sit only at
    the tail, so the cut drops nothing but pads), and the (source, target)
    lengths it was cut to."""
    s, t = M.real_length(batch.source_pad_mask), M.real_length(batch.target_pad_mask)
    cut = EncodedExample(batch.source_ids[..., :s], batch.target_ids[..., :t],
                         batch.source_pad_mask[..., :s], batch.target_pad_mask[..., :t],
                         batch.source_truncated, batch.target_truncated)
    return cut, (s, t)


def _row_draws(rng: np.random.Generator, rate: float, config, rows: int,
               lengths: tuple[int, int], kept: tuple[int, int]) -> Optional[tuple]:
    """The (encoder, decoder) `M.dropout_scales` of a pass over the first
    kept positions, from rows consecutive blocks of the draws a pass over
    lengths = (source, target) positions makes; None with dropout off."""
    if rate == 0:
        return None
    blocks = rng.random((rows, M.dropout_draws(config, *lengths)))
    return M.dropout_scales(config, blocks, lengths, kept, rate)


def _denoise_loss(store, config, items, rng: np.random.Generator,
                  rate: float) -> tuple[Tensor, int]:
    rows, blocks = [], []
    for ex in items:
        corrupted, picked = _mask_tokens(ex.source_ids, ex.source_pad_mask,
                                         config.vocab_size, rng)
        if len(picked) == 0:
            continue
        rows.append((ex, corrupted, picked))
        if rate > 0:
            blocks.append(rng.random(M.dropout_draws(config, len(ex.source_ids))))
    if not rows:
        return Tensor(0.0), 0
    pad = np.stack([ex.source_pad_mask for ex, _, _ in rows])
    n, s = pad.shape[-1], M.real_length(pad)
    drop = (M.dropout_scales(config, np.array(blocks), (n, 0), (s, 0), rate)[0]
            if rate > 0 else None)
    enc = M.encode(store, config, np.stack([c[:s] for _, c, _ in rows]), pad[:, :s], drop)
    row = np.concatenate([np.full(len(p), r) for r, (_, _, p) in enumerate(rows)])
    pos = np.concatenate([p for _, _, p in rows])
    original = np.concatenate([ex.source_ids[p] for ex, _, p in rows])
    # the vocab projection and softmax only at the masked positions
    logits = ad.linear(enc[(row, pos)], store["embedding.word"].transpose(),
                       store["mlm.bias"])
    picked_p = ad.softmax(logits, axis=-1)[(np.arange(len(pos)), original)]
    return -ad.log(ad.clamp_min(picked_p, CLAMP_FLOOR)).sum(), len(pos)


def _summarize_loss(store, config, items, rng, rate) -> tuple[Tensor, int]:
    full = _stack(items)
    batch, kept = _cut(full)
    lengths = (full.source_ids.shape[-1], full.target_ids.shape[-1])
    drop = _row_draws(rng, rate, config, len(items), lengths, kept)
    probs, _ = M.forward_teacher_forced(store, config, batch, drop=drop)
    loss, n = mle_loss(probs, batch.target_ids, batch.target_pad_mask)
    return loss * n, n


def _select_loss(store, config, items, rng, rate) -> tuple[Tensor, int]:
    full = _stack([ex for ex, _ in items])
    batch, (s, _) = _cut(full)
    drop = _row_draws(rng, rate, config, len(items), (full.source_ids.shape[-1], 0),
                      (s, 0))
    enc = M.encode(store, config, batch.source_ids, batch.source_pad_mask,
                   None if drop is None else drop[0])
    pred = sel.selector_forward(store, enc)
    labels = np.concatenate([y for _, y in items])
    return sel.selector_loss(pred, labels, batch.source_pad_mask) * len(labels), len(labels)


def check_decode_options(mode: str, beam_width: int) -> None:
    """Raise ValueError for a decode mode or beam width that cannot run."""
    if mode not in ("greedy", "beam"):
        raise ValueError(f"unknown decode mode {mode!r}")
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")


def decode_corpus(store, config, examples, vocab: Vocabulary,
                  selected: Optional[np.ndarray] = None, mode: str = "greedy",
                  beam_width: int = 4, alpha: float = 0.6) -> list[str]:
    """Decode every example to a detokenized summary string.

    selected, when given, is the boolean [examples, source positions]
    selection mask (`selection.selection_mask`) that masks the copy head
    during decoding.  mode is "greedy" or "beam"; either search runs once,
    on every example as one batch cut to the longest real source.
    """
    check_decode_options(mode, beam_width)
    if not examples:
        return []
    batch, (s, _) = _cut(_stack(examples))
    selected = None if selected is None else selected[:, :s]
    if mode == "greedy":
        decoded = search.greedy_decode(store, config, batch.source_ids,
                                       batch.source_pad_mask, selected)
    else:
        decoded = search.beam_decode(store, config, batch.source_ids,
                                     batch.source_pad_mask, selected,
                                     beam_width=beam_width, alpha=alpha)
    return [detokenize([vocab.pieces[t] for t in ids]) for ids in decoded]


def dev_rouge_l(store, config, dev: list, vocab: Vocabulary) -> float:
    """Mean ROUGE-L F1 of greedy decodes against reference summary text."""
    hyps = decode_corpus(store, config, [ex for ex, _ in dev], vocab)
    total = 0.0
    for (_, ref_text), hyp in zip(dev, hyps):
        _, _, f1 = metrics.rouge_l(metrics.normalize_for_rouge(ref_text),
                                   metrics.normalize_for_rouge(hyp))
        total += f1
    return total / len(dev)


def _dev_metric(store, config, dev, tcfg: TrainConfig, stage: str,
                vocab: Optional[Vocabulary]) -> tuple[float, Optional[np.ndarray]]:
    """The store's dev score, and for a select stage the pooled dev
    probabilities it was scored on (None for the other stages)."""
    if stage == "summarize":
        return dev_rouge_l(store, config, dev, vocab), None
    if stage == "denoise":
        mask_rng = np.random.default_rng([tcfg.seed, 0xDEF])
        total, count = 0.0, 0
        with ad.no_grad():
            for start in range(0, len(dev), tcfg.batch_size):
                loss, n = _denoise_loss(store, config, dev[start:start + tcfg.batch_size],
                                        mask_rng, 0.0)
                total += float(loss.data)
                count += n
        return -total / max(count, 1), None
    # select: pooled F1 at the best midpoint threshold
    flat_p = np.concatenate(sel.selector_probs(store, config, [ex for ex, _ in dev]))
    flat_y = np.concatenate([y for _, y in dev])
    try:
        eps = sel.calibrate_threshold(flat_p, flat_y)
    except sel.CalibrationError:
        return 0.0, flat_p
    _, _, f1 = metrics.coverage_prf(flat_p > eps, flat_y)
    return f1, flat_p


# Per stage kind: (store, config, items, rng, dropout rate) -> (loss summed
# over the items, count), from one graph over the stacked items cut to their
# longest real source and target (`_cut`).  With a rate above 0, rng yields
# one full-length block of `M.dropout_draws` values per example in item
# order (for denoising, each right after that example's masking draws),
# and `M.dropout_scales` turns the draws of the kept positions into each
# dropout site's scales, so every example is masked as if it ran alone at
# full length; a rate of 0 draws no dropout.  Only denoising draws its
# masking from rng.
_LOSS_FNS = {"denoise": _denoise_loss, "summarize": _summarize_loss,
             "select": _select_loss}


# The arena every minibatch graph of every train_stage in this process writes
# into, reset before each forward, so its pages stay mapped from one
# minibatch, and one stage, to the next.  With an arena per stage, a
# staged_train unit (four stages) peaked at 97 MB with ~11K minor faults,
# against 78 MB and a few hundred (likely as freeing each stage's buffer
# lifts glibc's trim threshold, so the heap keeps that much more).  Stages
# run one at a time, as the active tape is one per process.
_ARENA = ad.Arena()


def _minibatch(loss_fn, store, config, batch, rng, rate: float) -> Optional[tuple[float, int]]:
    """One minibatch's forward and backward on a tape writing into
    `_ARENA`, which is reset first: (loss per counted target, count), or
    None when the batch has nothing to count.  The graph is released when
    this returns, so the next call's reset finds it gone."""
    _ARENA.reset()
    with ad.new_tape() as tape:
        tape.arena = _ARENA
        loss, count = loss_fn(store, config, batch, rng, rate)
        if count == 0:
            return None
        total = loss / count
        if np.isnan(total.data):
            raise StageError("training diverged (NaN loss)")
        total.backward()
        return float(total.data), count


def train_stage(init: ParamStore, config, train_data: list, dev_data: list,
                tcfg: TrainConfig, vocab: Optional[Vocabulary] = None,
                stage: str = "summarize") -> tuple[ParamStore, TrainReport]:
    """Shuffled mini-batch Adam training of one stage kind (a key of
    `_LOSS_FNS`), scored on dev after every epoch with best-on-dev
    checkpointing.  Every minibatch's graph writes its activations into the
    process's one `ad.Arena`, reset for the next minibatch once the graph is
    released (`_minibatch`), so a stage holds one graph's activations at a
    time, in pages kept from one minibatch to the next."""
    if stage not in _LOSS_FNS:
        raise ValueError(f"unknown stage kind {stage!r}")
    if not train_data:
        raise StageError("training corpus is empty")
    store = init.copy()
    state = AdamState(store.flat.size, lr=tcfg.lr)
    rng = np.random.default_rng([tcfg.seed, 1])
    report = TrainReport()
    best_store = store.copy()
    clock = time.perf_counter()
    if dev_data:
        report.best_metric, report.best_dev_probs = _dev_metric(
            store, config, dev_data, tcfg, stage, vocab)
    report.initial_dev_eval_s = time.perf_counter() - clock

    for epoch in range(1, tcfg.max_epochs + 1):
        clock = time.perf_counter()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        order = rng.permutation(len(train_data))
        epoch_loss, epoch_count, grad_norms = 0.0, 0, []
        for start in range(0, len(order), tcfg.batch_size):
            batch = [train_data[i] for i in order[start:start + tcfg.batch_size]]
            store.zero_grads()
            step = _minibatch(_LOSS_FNS[stage], store, config, batch, rng, tcfg.dropout)
            if step is None:
                continue
            loss, count = step
            grad_norms.append(float(np.linalg.norm(store.grad)))
            adam_step(store.flat, store.grad, state)
            epoch_loss += loss * count
            epoch_count += count
        train_loss = epoch_loss / max(epoch_count, 1)
        rec = {"epoch": epoch, "train_loss": train_loss}
        train_s = time.perf_counter() - clock
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        if dev_data:
            metric, probs = _dev_metric(store, config, dev_data, tcfg, stage, vocab)
            rec["dev_metric"] = metric
            if metric > report.best_metric:
                report.best_metric, report.best_dev_probs = metric, probs
                report.best_epoch = epoch
                best_store = store.copy()
        report.records.append(rec)
        report.timings.append({"epoch": epoch, "train_s": train_s,
                               "dev_eval_s": time.perf_counter() - clock - train_s,
                               "train_examples_per_s": len(train_data) / train_s,
                               "target_tokens_per_s": epoch_count / train_s,
                               "mean_grad_norm": (sum(grad_norms) / len(grad_norms)
                                                  if grad_norms else 0.0),
                               "minor_faults": faults, "rss_mb": _resident_mb(),
                               "process_peak_rss_mb": resource.getrusage(
                                   resource.RUSAGE_SELF).ru_maxrss / 1024})
    if not dev_data:
        best_store = store.copy()
        report.best_epoch = tcfg.max_epochs
    best_store.provenance = list(init.provenance)
    return best_store, report


def denoise_pretrain(config, tcfg: TrainConfig, train_examples: list,
                     dev_examples: list) -> tuple[ParamStore, TrainReport]:
    """Masked-token pretraining producing an encoder-style source checkpoint."""
    init = init_random(config, tcfg.seed, arch="mlm_encoder")
    return train_stage(init, config, train_examples, dev_examples, tcfg, stage="denoise")
