"""Greedy and beam-search decoding with a sub-linear length penalty.

Both run on the incremental decoder (`model.start_decode`,
`model.decode_step`).  Greedy decodes a whole corpus as one batch, one row
per source, and drops each row once it emits EOS.  Beam search decodes one
source at a time: it steps every live hypothesis as one batch and stops as
soon as no live hypothesis can beat the best finished one.  Both decode at
most `decoder_positions - 1` tokens: the longest summary that a target of
`decoder_positions` tokens, EOS included, holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import model as M
from .tokenizer import BOS, EOS


def length_penalty(length: int, alpha: float) -> float:
    """((5 + |Y|) / 6) ** alpha, the GNMT normalization."""
    return ((5.0 + length) / 6.0) ** alpha


@dataclass
class Hypothesis:
    tokens: list[int] = field(default_factory=list)   # emitted ids, BOS excluded
    log_prob: float = 0.0

    def penalized(self, alpha: float) -> float:
        return self.log_prob / length_penalty(max(len(self.tokens), 1), alpha)


def _log_probs(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of mixed logits [rows, vocab]."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def greedy_decode(store, config, source_ids, source_pad_mask,
                  selected: Optional[np.ndarray] = None) -> list[list[int]]:
    """Argmax decoding (ties to the lowest id) of every row of source_ids
    [rows, source_positions] as one batch; a row stops at EOS or after
    config.decoder_positions - 1 tokens.

    Each source is encoded on its own, and a row's tokens are the ones a
    one-row decode of it gives.  Returns one token list per row.
    """
    outs: list[list[int]] = [[] for _ in source_ids]
    with ad.no_grad():
        enc = [M.encode(store, config, ids, pad).data
               for ids, pad in zip(source_ids, source_pad_mask)]
        state = M.start_decode(store, config, ad.Tensor(np.stack(enc)), source_ids,
                               source_pad_mask, selected)
        live = np.arange(len(outs))             # the row of outs each state row feeds
        tokens = np.full(len(outs), BOS)
        for _ in range(config.decoder_positions - 1):
            lp = _log_probs(M.decode_step(store, config, state, tokens).mixed_logits)
            tokens = np.argmax(lp, axis=-1)
            going = tokens != EOS
            live, tokens = live[going], tokens[going]
            for row, tok in zip(live, tokens):
                outs[row].append(int(tok))
            if not len(live):
                break
            if not going.all():
                state.reorder(np.flatnonzero(going))
    return outs


def beam_decode(store, config, source_ids, source_pad_mask,
                selected: Optional[np.ndarray] = None,
                beam_width: int = 4, alpha: float = 0.6) -> list[int]:
    """Beam search over one source [source_positions]; finished hypotheses
    are compared by penalized score.

    Each live hypothesis proposes its beam_width + 1 best next tokens;
    those ending in EOS finish, and the beam_width most probable of the
    rest stay live.  At most steps = config.decoder_positions - 1 tokens
    are decoded.  Returns the best finished hypothesis (the earliest on a
    tie), or the best live one after the last step if nothing finished.
    Ties break toward lower token ids by candidate enumeration order.

    The search stops early once the best finished penalized score is at
    least max(live log_prob) / max(lp(1), lp(steps)).  That bound is exact
    for every alpha: log-probs are <= 0 and only fall as a hypothesis
    grows, so a live hypothesis that finishes at any length in 1..steps
    scores at most its log_prob over the largest penalty, and a later
    finisher that only ties never displaces an earlier one.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    steps = config.decoder_positions - 1
    largest_penalty = max(length_penalty(1, alpha), length_penalty(steps, alpha))
    with ad.no_grad():
        enc = M.encode(store, config, source_ids, source_pad_mask)
        state = M.start_decode(store, config, enc, source_ids, source_pad_mask,
                               selected)
        beam = [Hypothesis()]
        finished: list[Hypothesis] = []
        best = -np.inf
        for _ in range(steps):
            tokens = [hyp.tokens[-1] if hyp.tokens else BOS for hyp in beam]
            lp = _log_probs(M.decode_step(store, config, state, tokens).mixed_logits)
            candidates: list[tuple[Hypothesis, int]] = []
            for row, hyp in enumerate(beam):
                for tok in np.argsort(-lp[row], kind="stable")[: beam_width + 1]:
                    tok = int(tok)
                    log_prob = hyp.log_prob + float(lp[row, tok])
                    if tok == EOS:
                        done = Hypothesis(list(hyp.tokens), log_prob)
                        finished.append(done)
                        best = max(best, done.penalized(alpha))
                    else:
                        candidates.append((Hypothesis(hyp.tokens + [tok], log_prob), row))
            if not candidates:
                break
            candidates.sort(key=lambda c: -c[0].log_prob)
            kept = candidates[:beam_width]
            beam = [hyp for hyp, _ in kept]
            state.reorder([row for _, row in kept])
            if best >= max(hyp.log_prob for hyp in beam) / largest_penalty:
                break
        if finished:
            return max(finished, key=lambda h: h.penalized(alpha)).tokens
        return max(beam, key=lambda h: h.penalized(alpha)).tokens
