"""Greedy and beam-search decoding with a sub-linear length penalty.

Both decode a whole corpus as one batch on the incremental decoder
(`model.start_decode`, `model.decode_step`): each source is encoded on its
own and owns its rows of one decode state, 1 for greedy and up to
beam_width for beam search.  Greedy drops a source once it emits EOS; beam
search drops a source as soon as none of its live hypotheses can beat its
best finished one.  Both decode at most `decoder_positions - 1` tokens: the
longest summary that a target of `decoder_positions` tokens, EOS included,
holds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import autodiff as ad
from . import model as M
from .tokenizer import BOS, EOS


def length_penalty(length: int, alpha: float) -> float:
    """((5 + |Y|) / 6) ** alpha, the GNMT normalization."""
    return ((5.0 + length) / 6.0) ** alpha


def _log_probs(z: np.ndarray) -> np.ndarray:
    """Log-softmax of mixed logits [..., vocab] over the vocab axis.  A NaN
    or infinite row maximum raises NumericError, as in `ad.softmax`: the row
    would be all NaN, and a search would read token 0 from it."""
    top = z.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise ad.NumericError("decoding received a NaN or infinite logit row maximum")
    shifted = z - top
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def greedy_decode(store, config, source_ids, source_pad_mask,
                  selected: Optional[np.ndarray] = None) -> list[list[int]]:
    """Argmax decoding (ties to the lowest id) of every source of source_ids
    [sources, source_positions] as one batch; a source stops at EOS or
    after config.decoder_positions - 1 tokens.

    A source's tokens are the ones a one-source decode of it gives.
    Returns one token list per source.
    """
    outs: list[list[int]] = [[] for _ in source_ids]
    with ad.no_grad():
        state = M.start_decode(store, config, source_ids, source_pad_mask, selected)
        live = np.arange(len(outs))             # the entry of outs each source feeds
        tokens = np.full((len(outs), 1), BOS)
        for _ in range(config.decoder_positions - 1):
            lp = _log_probs(M.decode_step(store, config, state, tokens).mixed_logits)
            tokens = np.argmax(lp, axis=-1)
            going = tokens[:, 0] != EOS
            live, tokens = live[going], tokens[going]
            for src, tok in zip(live, tokens[:, 0]):
                outs[src].append(int(tok))
            if not len(live):
                break
            if not going.all():
                state.reorder(going, [[0]])     # each kept source keeps its one row
    return outs


def beam_decode(store, config, source_ids, source_pad_mask,
                selected: Optional[np.ndarray] = None,
                beam_width: int = 4, alpha: float = 0.6) -> list[list[int]]:
    """Beam search over every source of source_ids [sources,
    source_positions] as one batch; finished hypotheses are compared by
    penalized score.  Returns one token list per source.

    Each live hypothesis proposes its beam_width + 1 best next tokens
    (stable argsort, so ties go to lower ids); those ending in EOS finish,
    and the beam_width most probable of the rest stay live, ties going to
    the earlier proposal.  Every source keeps as many rows as the others;
    one with fewer live candidates (a beam as wide as the vocabulary or
    wider) fills the rest with dead rows at log-prob -inf, which never
    finish or stay live.  At most steps = config.decoder_positions - 1
    tokens are decoded.  A source's result is its best finished hypothesis
    (the earliest on a tie), or its most probable live one after the last
    step if nothing finished.

    A source stops early once its best finished penalized score is at least
    max(live log_prob) / max(lp(1), lp(steps)).  That bound is exact for
    every alpha: log-probs are <= 0 and only fall as a hypothesis grows, so
    a live hypothesis that finishes at any length in 1..steps scores at
    most its log_prob over the largest penalty, and a later finisher that
    only ties never displaces an earlier one.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    steps = config.decoder_positions - 1
    largest_penalty = max(length_penalty(1, alpha), length_penalty(steps, alpha))
    n = len(source_ids)
    outs: list[list[int]] = [[] for _ in range(n)]
    best = np.full(n, -np.inf)              # best finished penalized score
    with ad.no_grad():
        state = M.start_decode(store, config, source_ids, source_pad_mask, selected)
        live = np.arange(n)                 # the entry of outs each source feeds
        log_prob = np.zeros((n, 1))         # [sources, rows], -inf on dead rows
        history = np.zeros((n, 1, 0), dtype=np.int64)   # [sources, rows, tokens]
        tokens = np.full((n, 1), BOS)
        for t in range(steps):
            lp = _log_probs(M.decode_step(store, config, state, tokens).mixed_logits)
            # every row's proposals, flattened per source in enumeration order
            proposed = np.argsort(-lp, axis=-1, kind="stable")[..., : beam_width + 1]
            width = proposed.shape[-1]
            cand = log_prob[..., None] + np.take_along_axis(lp, proposed, -1)
            proposed, cand = proposed.reshape(len(live), -1), cand.reshape(len(live), -1)
            eos = proposed == EOS
            # EOS proposals finish: each source's best one (the first on a tie)
            done = np.where(eos, cand, -np.inf) / length_penalty(max(t, 1), alpha)
            first, score = done.argmax(axis=1), done.max(axis=1)
            for i in np.flatnonzero(score > best[live]):
                best[live[i]] = score[i]
                outs[live[i]] = history[i, first[i] // width].tolist()
            # the rest compete to stay live; rows are their old rows
            cand = np.where(eos, -np.inf, cand)
            order = np.argsort(-cand, axis=1, kind="stable")[:, :beam_width]
            rows = order // width
            log_prob = np.take_along_axis(cand, order, 1)
            tokens = np.take_along_axis(proposed, order, 1)
            history = np.concatenate(
                (history[np.arange(len(live))[:, None], rows], tokens[..., None]), axis=-1)
            going = best[live] < log_prob[:, 0] / largest_penalty
            live, log_prob, history, tokens = (
                x[going] for x in (live, log_prob, history, tokens))
            if not len(live):
                break
            state.reorder(going, rows[going])
        for i, src in enumerate(live):
            if best[src] == -np.inf:
                outs[src] = history[i, 0].tolist()
    return outs
