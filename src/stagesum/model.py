"""Transformer encoder-decoder with tied embeddings and a copy-attention head.

The output projection reuses the input embedding matrix.  Head `COPY_HEAD`
of the top decoder layer's cross-attention provides pre-softmax copy
logits, always mixed with the generation logits through a learned sigmoid
gate.

Training and decoding run one decoder, `decoder_stack`, on a `DecodeState`
that `source_state` builds from an encoder output: each layer's
cross-attention keys and values, the source mask and the copy-scatter
inputs.  Training runs the decoder over whole target sequences under a
causal mask (`forward_teacher_forced`), one row per example: every
function takes optional leading row axes, so a stack of examples is one
call and one graph.  Dropout is on exactly when a function is given `drop`,
its half's `dropout_scales` array: each dropout site multiplies by its own
[rows, positions, 1] scales, so each row is masked exactly as a one-row
pass with its own draws would be.  A layer records one node per head
split, attention, head merge, FFN and residual sublayer (dropout, residual
add and layer norm), `autodiff`'s fused ops.
Inference decodes incrementally over [sources, rows]: `start_decode`
builds the source side once per source, stored once and broadcast over the
source's rows, and each `decode_step` is one `decoder_stack` call that
computes only the newest position of every row of every source (one row
each for greedy, a beam's hypotheses for beam search), attending over the
self-attention keys and values it caches.  A row decodes exactly as it
would alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .tokenizer import BOS

NEG_MASK = -10000.0
# the top decoder layer's cross-attention head whose scores are the copy logits
COPY_HEAD = 0


class DecodeError(RuntimeError):
    pass


class DrawError(RuntimeError):
    """Dropout draws or scales that do not fit the pass they are given to."""


@dataclass
class ModelConfig:
    num_layers: int = 2
    hidden_size: int = 32
    num_heads: int = 4
    ffn_size: int = 64
    vocab_size: int = 64
    encoder_positions: int = 32
    decoder_positions: int = 16

    def __post_init__(self):
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")

    def fingerprint(self, arch: str) -> dict:
        return {"arch": arch, **asdict(self)}


def _attn_names(prefix):
    for proj in ("q", "k", "v", "o"):
        yield f"{prefix}.{proj}.weight"
        yield f"{prefix}.{proj}.bias"


def param_spec(config: ModelConfig, arch: str = "seq2seq") -> list[tuple[str, tuple, str]]:
    """Full list of (name, shape, kind) for an architecture.

    kind is "weight" (truncated-normal init), "bias" (zeros), or "gain" (ones).
    arch is "seq2seq", "mlm_encoder", or "selector".
    """
    h, f, v = config.hidden_size, config.ffn_size, config.vocab_size
    spec = [("embedding.word", (v, h), "weight"),
            ("embedding.pos_enc", (config.encoder_positions, h), "weight")]
    if arch == "seq2seq":
        spec.append(("embedding.pos_dec", (config.decoder_positions, h), "weight"))

    def block(prefix, cross=False):
        names = []
        for sub in ("self_attn",) + (("cross_attn",) if cross else ()):
            for n in _attn_names(f"{prefix}.{sub}"):
                names.append((n, (h, h) if n.endswith("weight") else (h,),
                              "weight" if n.endswith("weight") else "bias"))
            names.append((f"{prefix}.{sub}_norm.gain", (h,), "gain"))
            names.append((f"{prefix}.{sub}_norm.bias", (h,), "bias"))
        names += [(f"{prefix}.ffn.in.weight", (h, f), "weight"),
                  (f"{prefix}.ffn.in.bias", (f,), "bias"),
                  (f"{prefix}.ffn.out.weight", (f, h), "weight"),
                  (f"{prefix}.ffn.out.bias", (h,), "bias"),
                  (f"{prefix}.ffn_norm.gain", (h,), "gain"),
                  (f"{prefix}.ffn_norm.bias", (h,), "bias")]
        return names

    for i in range(config.num_layers):
        spec += block(f"encoder.layer.{i}")
    if arch == "seq2seq":
        for i in range(config.num_layers):
            spec += block(f"decoder.layer.{i}", cross=True)
        spec += [("output.bias", (v,), "bias"),
                 ("gate.weight", (h,), "weight"),
                 ("gate.bias", (), "bias")]
    elif arch == "mlm_encoder":
        spec.append(("mlm.bias", (v,), "bias"))
    elif arch == "selector":
        spec += [("selector.weight", (h,), "weight"),
                 ("selector.bias", (), "bias")]
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    return spec


@dataclass
class DecoderStepState:
    """What one decode step computes, one [sources, rows] cell per decoded
    sequence."""
    d_t: np.ndarray                # [sources, rows, hidden], top decoder layer
    cross_logits: np.ndarray       # [sources, rows, heads, source_positions], top layer
    copy_logits: np.ndarray        # [sources, rows, source_positions], head COPY_HEAD
    gen_logits: np.ndarray         # [sources, rows, vocab]
    p_gen: np.ndarray              # [sources, rows]
    mixed_logits: np.ndarray       # [sources, rows, vocab]


def _heads(store, name: str, x: Tensor, config: ModelConfig) -> Tensor:
    """Project x [..., steps, hidden] and split it into heads:
    [..., heads, steps, head_dim]."""
    return ad.split_heads(x, store[f"{name}.weight"], store[f"{name}.bias"], config.num_heads)


def _key_values(store, prefix: str, x: Tensor, config: ModelConfig) -> tuple[Tensor, Tensor]:
    return _heads(store, f"{prefix}.k", x, config), _heads(store, f"{prefix}.v", x, config)


def _scale(config: ModelConfig) -> float:
    """The attention scores' 1 / sqrt(head_dim)."""
    return 1.0 / math.sqrt(config.hidden_size // config.num_heads)


def _merge(store, prefix: str, ctx: Tensor) -> Tensor:
    """Merge the heads of ctx [..., heads, steps, head_dim] and project them:
    [..., steps, hidden]."""
    return ad.merge_heads(ctx, store[f"{prefix}.o.weight"], store[f"{prefix}.o.bias"])


def _cross_attend(store, prefix: str, q: Tensor, k: Tensor, v: Tensor, mask_add,
                  config: ModelConfig) -> tuple[Tensor, Tensor]:
    """Cross-attention, then the output projection: (output [..., steps,
    hidden], pre-softmax scores after the mask).  The scores are their own
    node: the top layer's feed the copy logits as well as the softmax."""
    scores = ad.attention_scores(q, k, _scale(config), mask_add)
    return _merge(store, prefix, ad.softmax_matmul(scores, v)), scores


def _ffn(store, prefix: str, x: Tensor) -> Tensor:
    return ad.ffn(x, *(store[f"{prefix}.{name}"]
                       for name in ("in.weight", "in.bias", "out.weight", "out.bias")))


def _drop_scales(drop: Optional[np.ndarray], site: int, x: Tensor) -> Optional[np.ndarray]:
    """Dropout site `site`'s scales drop[site] [rows, positions, 1] for
    x [rows, positions, hidden], or None when drop is None."""
    if drop is None:
        return None
    scale = drop[site]
    if scale.shape[:-1] != x.shape[:-1]:
        raise DrawError(f"dropout scales for {scale.shape[:-1]} [rows, positions] "
                        f"at a site over {x.shape[:-1]}")
    return scale


def _dropout(x: Tensor, drop: Optional[np.ndarray], site: int) -> Tensor:
    """x times its dropout site's scales, or x itself when drop is None."""
    scale = _drop_scales(drop, site, x)
    return x if scale is None else x * scale


def _sublayer(store, norm_prefix: str, x: Tensor, out: Tensor,
              drop: Optional[np.ndarray], site: int) -> Tensor:
    """layer_norm(x + dropout(out)), as one node."""
    return ad.residual_norm(x, out, _drop_scales(drop, site, out),
                            store[f"{norm_prefix}.gain"], store[f"{norm_prefix}.bias"])


def dropout_draws(config: ModelConfig, source_len: int, target_len: int = 0) -> int:
    """Dropout draws one example makes in a training forward pass.

    Every position draws once at each dropout site (the embedding and each
    `_sublayer`), site after site: the encoder's embedding, then per layer
    its attention and FFN, S(1 + 2L) draws; then, when target_len is not 0,
    the decoder's embedding, then per layer its self-attention,
    cross-attention and FFN, T(1 + 3L) draws.  A site's draws are its
    positions' in order, so a pass over only the first s source (t target)
    positions reads the first s (t) draws of every site: `dropout_scales`.
    """
    layers = config.num_layers
    return source_len * (1 + 2 * layers) + target_len * (1 + 3 * layers)


def dropout_scales(config: ModelConfig, blocks: np.ndarray, lengths: tuple[int, int],
                   kept: tuple[int, int], rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-site dropout scales from blocks [rows, dropout_draws(config,
    *lengths)], laid out for a pass over lengths = (source, target)
    positions, for a pass over the first kept = (s, t) positions.

    Returns (encoder [1 + 2L, rows, s, 1], decoder [1 + 3L, rows, t, 1]):
    site k of a half (`dropout_draws` order) scales position p of row r by
    0 where its draw is below `rate` and by 1 / (1 - rate) elsewhere, so
    each kept position gets the mask it gets in the full-length pass and a
    whole hidden vector is dropped at once.
    """
    rows = blocks.shape[0]
    if blocks.shape[1:] != (dropout_draws(config, *lengths),):
        raise DrawError(f"{blocks.shape[1:]} draws per row for {lengths} positions")
    (source_len, target_len), (s, t) = lengths, kept
    # draws per source and per target position: one per site
    enc_sites, dec_sites = dropout_draws(config, 1), dropout_draws(config, 0, 1)
    split = source_len * enc_sites
    enc = blocks[:, :split].reshape(rows, enc_sites, source_len)[..., :s]
    dec = blocks[:, split:].reshape(rows, dec_sites, target_len)[..., :t]
    return tuple(np.ascontiguousarray(((d >= rate) / (1.0 - rate)).swapaxes(0, 1)[..., None])
                 for d in (enc, dec))


def real_length(pad_mask: np.ndarray) -> int:
    """Positions up to the last one that is not a pad in any row of
    pad_mask [..., positions]: cutting the rows to it drops only pads."""
    real = np.flatnonzero(~pad_mask.reshape(-1, pad_mask.shape[-1]).all(axis=0))
    return int(real[-1]) + 1 if len(real) else 0


def pad_mask_add(pad_mask: np.ndarray) -> np.ndarray:
    """Additive attention mask hiding pad key positions: [..., 1, 1, keys]
    for a pad mask [..., keys]."""
    return (pad_mask.astype(np.float64) * NEG_MASK)[..., None, None, :]


def causal_mask_add(n: int) -> np.ndarray:
    m = np.triu(np.full((n, n), NEG_MASK), k=1)
    return m[None, :, :]


def embed(store, ids: np.ndarray, pos_table: str, config: ModelConfig,
          start: int = 0) -> Tensor:
    """Word plus position embeddings [..., positions, hidden]; the last axis
    of `ids` holds positions start, start + 1, ..."""
    if np.any(ids >= config.vocab_size) or np.any(ids < 0):
        raise ad.ShapeError("token id out of vocabulary range")
    pos = store[pos_table]
    end = start + ids.shape[-1]
    if end > pos.shape[0]:
        raise ad.ShapeError(
            f"sequence length {end} exceeds {pos_table} table {pos.shape[0]}")
    return ad.embedding(store["embedding.word"], ids) + pos[start:end]


def encode(store, config: ModelConfig, source_ids: np.ndarray,
           source_pad_mask: np.ndarray, drop: Optional[np.ndarray] = None) -> Tensor:
    """Run the encoder stack over source_ids [..., positions]; pad positions
    are hidden from attention.  drop is the encoder's `dropout_scales`
    array: the embedding is site 0, and layer i's attention and FFN are
    sites 1 + 2i and 2 + 2i."""
    if source_pad_mask.all(axis=-1).any():
        raise ValueError("encode requires at least one non-pad source position per row")
    x = _dropout(embed(store, source_ids, "embedding.pos_enc", config), drop, 0)
    mask = pad_mask_add(source_pad_mask)
    for i in range(config.num_layers):
        p = f"encoder.layer.{i}"
        q = _heads(store, f"{p}.self_attn.q", x, config)
        k, v = _key_values(store, f"{p}.self_attn", x, config)
        att = _merge(store, f"{p}.self_attn", ad.attention(q, k, v, _scale(config), mask))
        x = _sublayer(store, f"{p}.self_attn_norm", x, att, drop, 1 + 2 * i)
        x = _sublayer(store, f"{p}.ffn_norm", x, _ffn(store, f"{p}.ffn", x), drop, 2 + 2 * i)
    return x


@dataclass
class DecodeState:
    """What `decoder_stack` reads besides its input ids.

    `source_state` builds the source side: [..., ·] arrays, one per row in
    training, and [sources, 1, ...] while decoding, stored once per source
    and broadcast over its rows.  self_kv is None in a teacher-forced pass;
    while decoding (`start_decode`) it caches each layer's self-attention
    keys and values per row, and `position` is the next position to decode.
    `reorder` follows a beam's backpointers within each source and drops the
    sources whose decodes have ended.
    """
    # per layer, (k, v) Tensors [..., heads, source_positions, head_dim]
    cross_kv: list
    source_mask_add: np.ndarray    # [..., 1, 1, source_positions]
    copy_ids: np.ndarray           # [..., source_positions]
    vocab_mask_add: Optional[np.ndarray]   # [..., vocab], or None
    # layer -> (k, v) [sources, rows, heads, positions decoded, head_dim]
    self_kv: Optional[dict] = None
    position: int = 0

    def reorder(self, keep: np.ndarray, rows) -> None:
        """Drop the sources where keep [sources] is False, and make row j of
        the i-th kept source a copy of its old row rows[i, j] (repeats
        allowed; rows broadcasts to [kept sources, new rows])."""
        kept = np.flatnonzero(keep)
        index = (kept[:, None], np.asarray(rows, dtype=np.int64))
        self.self_kv = {i: (k[index], v[index]) for i, (k, v) in self.self_kv.items()}
        if len(kept) < len(keep):
            self.cross_kv = [(Tensor(k.data[kept]), Tensor(v.data[kept]))
                             for k, v in self.cross_kv]
            self.source_mask_add = self.source_mask_add[kept]
            self.copy_ids = self.copy_ids[kept]
            if self.vocab_mask_add is not None:
                self.vocab_mask_add = self.vocab_mask_add[kept]


def source_state(store, config: ModelConfig, encoder_out: Tensor, source_ids: np.ndarray,
                 source_pad_mask: np.ndarray,
                 selected: Optional[np.ndarray] = None) -> DecodeState:
    """The source side of a decoder pass from encoder_out [...,
    source_positions, hidden] (source_ids, source_pad_mask and `selected`
    [..., source_positions]): each layer's cross-attention keys and values,
    the source mask and `copy_inputs`, with no self-attention cache."""
    cross_kv = [_key_values(store, f"decoder.layer.{i}.cross_attn", encoder_out, config)
                for i in range(config.num_layers)]
    return DecodeState(cross_kv, pad_mask_add(source_pad_mask),
                       *copy_inputs(source_ids, source_pad_mask, selected, config.vocab_size))


def decoder_stack(store, config: ModelConfig, state: DecodeState, input_ids: np.ndarray,
                  drop: Optional[np.ndarray] = None) -> tuple[Tensor, Tensor]:
    """The decoder over input_ids [..., steps] at positions state.position
    onward, attending over the sources in `state`; returns (hidden states
    [..., steps, hidden], top-layer cross-attention logits [..., heads,
    steps, source_positions], pre-softmax).

    Without a self-attention cache (teacher forcing) the steps attend to
    each other under a causal mask.  With one (decoding) a call is one
    step, which has no later position to hide: each layer's new keys and
    values are appended to the cache, and state.position advances.  drop is
    the decoder's `dropout_scales` array: the embedding is site 0, and layer
    i's self-attention, cross-attention and FFN are sites 1 + 3i, 2 + 3i and
    3 + 3i.
    """
    cache, start, steps = state.self_kv, state.position, input_ids.shape[-1]
    if start + steps > config.decoder_positions:
        raise DecodeError(f"decoder length {start + steps} exceeds limit "
                          f"{config.decoder_positions}")
    if cache is not None and steps != 1:
        raise DecodeError(f"a cached decoder call takes one step, not {steps}")
    x = _dropout(embed(store, input_ids, "embedding.pos_dec", config, start), drop, 0)
    causal = causal_mask_add(steps) if cache is None else None
    for i in range(config.num_layers):
        p = f"decoder.layer.{i}"
        # q before k and v: backward adds x's gradients in recording order
        q = _heads(store, f"{p}.self_attn.q", x, config)
        k, v = _key_values(store, f"{p}.self_attn", x, config)
        if cache is not None:
            if i in cache:
                k, v = (Tensor(np.concatenate([past, new.data], axis=-2))
                        for past, new in zip(cache[i], (k, v)))
            cache[i] = (k.data, v.data)
        att = _merge(store, f"{p}.self_attn", ad.attention(q, k, v, _scale(config), causal))
        x = _sublayer(store, f"{p}.self_attn_norm", x, att, drop, 1 + 3 * i)
        q = _heads(store, f"{p}.cross_attn.q", x, config)
        cross, scores = _cross_attend(store, f"{p}.cross_attn", q, *state.cross_kv[i],
                                      state.source_mask_add, config)
        x = _sublayer(store, f"{p}.cross_attn_norm", x, cross, drop, 2 + 3 * i)
        x = _sublayer(store, f"{p}.ffn_norm", x, _ffn(store, f"{p}.ffn", x), drop, 3 + 3 * i)
    if cache is not None:
        state.position = start + steps
    return x, scores


def gate(store, d: Tensor) -> Tensor:
    """p_gen = sigmoid(d . gate.weight + gate.bias), over d's last axis."""
    return ad.sigmoid(ad.linear(d, store["gate.weight"], store["gate.bias"]))


def generation_logits(store, d: Tensor) -> Tensor:
    """Tied-embedding output projection: d V^T + b_v."""
    return ad.linear(d, store["embedding.word"].transpose(), store["output.bias"])


def selection_vocab_mask_add(source_ids: np.ndarray, source_pad_mask: np.ndarray,
                             selected: np.ndarray, vocab_size: int) -> np.ndarray:
    """Additive vocab-space copy mask [..., vocab] for sources [...,
    positions]: per row, -10000 for source token types with no selected
    occurrence, 0 elsewhere.

    Applied after the copy scatter so that a token type repeated at both
    selected and unselected source positions keeps its selected logits
    instead of inheriting a -10000 offset per unselected duplicate.  On
    sources without repeated tokens this equals masking each position's
    logit before the scatter.
    """
    # per row, which types occur and which occur selected; pads and
    # unselected positions mark a spare last column
    present = np.zeros(source_ids.shape[:-1] + (vocab_size + 1,), bool)
    kept = np.zeros_like(present)
    np.put_along_axis(present, np.where(source_pad_mask, vocab_size, source_ids), True, -1)
    np.put_along_axis(kept, np.where(source_pad_mask | ~selected.astype(bool), vocab_size,
                                     source_ids), True, -1)
    return np.where((present & ~kept)[..., :vocab_size], NEG_MASK, 0.0)


def copy_inputs(source_ids: np.ndarray, source_pad_mask: np.ndarray,
                selected: Optional[np.ndarray], vocab_size: int
                ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(scatter ids [..., positions] with -1 at pad positions, vocab-space
    selection mask [..., vocab] or None): what `mixed_logits` needs to know
    about the source."""
    ids = np.where(source_pad_mask, -1, source_ids)
    if selected is None:
        return ids, None
    return ids, selection_vocab_mask_add(source_ids, source_pad_mask, selected, vocab_size)


def mixed_logits(store, config: ModelConfig, d: Tensor, copy_logits: Tensor,
                 copy_ids: np.ndarray, vocab_mask_add: Optional[np.ndarray] = None
                 ) -> tuple[Tensor, Tensor, Tensor]:
    """Gate-weighted sum of generation and scatter-projected copy logits.

    d is [..., steps, hidden] and copy_logits [..., steps, source_positions];
    copy_ids [..., source_positions] and vocab_mask_add [..., vocab] come
    from `copy_inputs`.  Returns (mixed [..., steps, vocab], gen_logits,
    p_gen).  Pad source positions never enter the scatter.
    """
    y = generation_logits(store, d)
    copy_vocab = ad.scatter_copy(copy_logits, copy_ids, config.vocab_size)
    if vocab_mask_add is not None:
        copy_vocab = copy_vocab + Tensor(vocab_mask_add[..., None, :])
    p = gate(store, d)
    p2 = p.reshape(*p.shape, 1)
    z = p2 * y + (1.0 - p2) * copy_vocab
    return z, y, p


def forward_teacher_forced(store, config: ModelConfig, example,
                           selected: Optional[np.ndarray] = None,
                           drop: Optional[tuple[np.ndarray, np.ndarray]] = None):
    """Teacher-forced decode over all target positions.

    `example` holds one example's arrays, or [rows, ·] stacks of several
    (with `selected` [rows, source_positions]).  Returns (P [..., steps,
    vocab] as a Tensor of per-position distributions, cache dict).  Dropout
    is on iff `drop`, the (encoder, decoder) pair of `dropout_scales`, is
    given.
    """
    enc_drop, dec_drop = drop or (None, None)
    enc = encode(store, config, example.source_ids, example.source_pad_mask, enc_drop)
    state = source_state(store, config, enc, example.source_ids, example.source_pad_mask,
                         selected)
    targets = example.target_ids
    bos = np.full(targets.shape[:-1] + (1,), BOS, dtype=targets.dtype)
    dec_input = np.concatenate((bos, targets[..., :-1]), axis=-1)
    d, cross = decoder_stack(store, config, state, dec_input, dec_drop)
    copy = cross[..., COPY_HEAD, :, :]
    z, y, p = mixed_logits(store, config, d, copy, state.copy_ids, state.vocab_mask_add)
    cache = {"encoder_out": enc, "decoder_out": d, "cross_logits": cross,
             "copy_logits": copy, "gen_logits": y, "p_gen": p, "mixed_logits": z}
    return ad.softmax(z, axis=-1), cache


def start_decode(store, config: ModelConfig, source_ids: np.ndarray,
                 source_pad_mask: np.ndarray,
                 selected: Optional[np.ndarray] = None) -> DecodeState:
    """Decoding state for sources source_ids [sources, source_positions]
    (source_pad_mask and `selected` alike), before the BOS step.

    Encodes each source on its own and builds the source side once per
    source (`source_state` over [sources, 1, ...] stacks), for every later
    step, with an empty self-attention cache; the first `decode_step` sets
    how many rows each source has.
    """
    with ad.no_grad():
        enc = Tensor(np.stack([encode(store, config, ids, pad).data
                               for ids, pad in zip(source_ids, source_pad_mask)])[:, None])
        state = source_state(store, config, enc, source_ids[:, None], source_pad_mask[:, None],
                             None if selected is None else selected[:, None])
    state.self_kv = {}
    return state


def decode_step(store, config: ModelConfig, state: DecodeState,
                tokens) -> DecoderStepState:
    """Feed `tokens` [sources, rows] (BOS at the first step) at the next
    position: one cached `decoder_stack` call.

    Every row of `state` advances by one position and only the new position
    is computed.  Each row stays [1, hidden] up to the mixed logits, so its
    products are the ones a one-row step computes.  Returns that position's
    outputs per row, mixed exactly as `forward_teacher_forced` mixes them.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    # the first step sets each source's row count
    rows = next((k.shape[1] for k, _ in state.self_kv.values()), tokens.shape[-1])
    if tokens.shape != (state.copy_ids.shape[0], rows):
        raise ValueError(f"tokens {tokens.shape} for a decode state of "
                         f"{(state.copy_ids.shape[0], rows)} [sources, rows]")
    with ad.no_grad():
        x, cross = decoder_stack(store, config, state, tokens[..., None])
        copy = cross[..., COPY_HEAD, :, :]
        z, y, p = mixed_logits(store, config, x, copy, state.copy_ids,
                               state.vocab_mask_add)
    # drop the step axis of the one position computed
    return DecoderStepState(d_t=x.data[..., 0, :], cross_logits=cross.data[..., 0, :],
                            copy_logits=copy.data[..., 0, :], gen_logits=y.data[..., 0, :],
                            p_gen=p.data[..., 0], mixed_logits=z.data[..., 0, :])
