"""The model as computed before any fusion: a whole-model test oracle.

The encoder, the decoder, the copy mix and the three stage losses, written
from unfused primitives (`matmul`, `+`, `*`, `reshape`, `swapaxes`,
`softmax`, `layer_norm`, `gelu`, `embedding`, `scatter_copy`).  Every
function records its nodes in the order the model records the fused ones
(a layer's q before its k and v; the cross-attention keys and values of
every layer before the decoder), because the replay adds a tensor's
gradients in reverse recording order and that order sets their last bits.
So losses, probabilities and every parameter gradient must equal the
model's bit for bit.  The data preparation (stacking, cutting, masking and
dropout draws) and the losses' unfused tails (`training.mle_loss`,
`selection.selector_loss`) are the model's own.
"""

import math

import numpy as np
from scipy.special import erf

from stagesum import autodiff as ad
from stagesum import model as M
from stagesum import selection as sel
from stagesum import training
from stagesum.autodiff import Tensor
from stagesum.tokenizer import BOS

# -- unfused primitives --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.  Stacked operands broadcast over their batch axes, as
    in np.matmul (e.g. x [B, T, H] @ W [H, K]), gradients included."""
    ad._check_inner(a.data, b.data)
    return ad._make(np.matmul(a.data, b.data), (a, b),
                    lambda: ad._matmul_rules(a.data, b.data))


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    return ad._make(x.data.swapaxes(a, b), (x,), lambda: (lambda g: g.swapaxes(a, b),))


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    cdf = 0.5 * (1.0 + erf(x.data * (1.0 / math.sqrt(2.0))))

    def rules():
        def grad(g):
            pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x.data * x.data)
            return g * (cdf + x.data * pdf)
        return (grad,)

    return ad._make(x.data * cdf, (x,), rules)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance (+1e-12),
    then affine."""
    n = x.data.shape[-1]
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + 1e-12)
    xhat *= inv

    def rules():
        def grad_x(g):
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            return inv * (dxhat - m1 - xhat * m2)
        return (grad_x, lambda g: (g * xhat).reshape(-1, g.shape[-1]).sum(axis=0),
                lambda g: g.reshape(-1, g.shape[-1]).sum(axis=0))

    return ad._make(gain.data * xhat + bias.data, (x, gain, bias), rules)


# -- the model -----------------------------------------------------------------


def linear(store, name: str, x: Tensor) -> Tensor:
    return matmul(x, store[f"{name}.weight"]) + store[f"{name}.bias"]


def heads(store, name: str, x: Tensor, config) -> Tensor:
    y = linear(store, name, x)
    h = config.num_heads
    return swapaxes(y.reshape(*y.shape[:-1], h, config.hidden_size // h), -3, -2)


def merge(store, prefix: str, ctx: Tensor, config) -> Tensor:
    ctx = swapaxes(ctx, -3, -2)
    return linear(store, f"{prefix}.o", ctx.reshape(*ctx.shape[:-2], config.hidden_size))


def attend(store, prefix: str, q: Tensor, k: Tensor, v: Tensor, mask_add, config):
    """(merged and projected output, pre-softmax scores)."""
    s = matmul(q, swapaxes(k, -1, -2)) * M._scale(config)
    if mask_add is not None:
        s = s + Tensor(mask_add)
    return merge(store, prefix, matmul(ad.softmax(s, axis=-1), v), config), s


def dropout(x: Tensor, drop, site: int) -> Tensor:
    return x if drop is None else x * drop[site]


def sublayer(store, norm_prefix: str, x: Tensor, out: Tensor, drop, site: int) -> Tensor:
    return layer_norm(x + dropout(out, drop, site), store[f"{norm_prefix}.gain"],
                      store[f"{norm_prefix}.bias"])


def ffn(store, prefix: str, x: Tensor) -> Tensor:
    return linear(store, f"{prefix}.out", gelu(linear(store, f"{prefix}.in", x)))


def embed(store, ids, pos_table: str) -> Tensor:
    return ad.embedding(store["embedding.word"], ids) + store[pos_table][0:ids.shape[-1]]


def encode(store, config, source_ids, source_pad_mask, drop=None) -> Tensor:
    x = dropout(embed(store, source_ids, "embedding.pos_enc"), drop, 0)
    mask = M.pad_mask_add(source_pad_mask)
    for i in range(config.num_layers):
        p = f"encoder.layer.{i}"
        q, k, v = (heads(store, f"{p}.self_attn.{n}", x, config) for n in "qkv")
        att, _ = attend(store, f"{p}.self_attn", q, k, v, mask, config)
        x = sublayer(store, f"{p}.self_attn_norm", x, att, drop, 1 + 2 * i)
        x = sublayer(store, f"{p}.ffn_norm", x, ffn(store, f"{p}.ffn", x), drop, 2 + 2 * i)
    return x


def forward_teacher_forced(store, config, example, selected=None, drop=None) -> Tensor:
    """The distributions [..., steps, vocab] of a teacher-forced pass."""
    enc_drop, dec_drop = drop or (None, None)
    enc = encode(store, config, example.source_ids, example.source_pad_mask, enc_drop)
    cross_kv = [[heads(store, f"decoder.layer.{i}.cross_attn.{n}", enc, config)
                 for n in "kv"] for i in range(config.num_layers)]
    source_mask = M.pad_mask_add(example.source_pad_mask)
    copy_ids, vocab_mask = M.copy_inputs(example.source_ids, example.source_pad_mask,
                                         selected, config.vocab_size)
    targets = example.target_ids
    bos = np.full(targets.shape[:-1] + (1,), BOS, dtype=targets.dtype)
    ids = np.concatenate((bos, targets[..., :-1]), axis=-1)
    x = dropout(embed(store, ids, "embedding.pos_dec"), dec_drop, 0)
    causal = M.causal_mask_add(ids.shape[-1])
    for i in range(config.num_layers):
        p = f"decoder.layer.{i}"
        q, k, v = (heads(store, f"{p}.self_attn.{n}", x, config) for n in "qkv")
        att, _ = attend(store, f"{p}.self_attn", q, k, v, causal, config)
        x = sublayer(store, f"{p}.self_attn_norm", x, att, dec_drop, 1 + 3 * i)
        q = heads(store, f"{p}.cross_attn.q", x, config)
        cross, s = attend(store, f"{p}.cross_attn", q, *cross_kv[i], source_mask, config)
        x = sublayer(store, f"{p}.cross_attn_norm", x, cross, dec_drop, 2 + 3 * i)
        x = sublayer(store, f"{p}.ffn_norm", x, ffn(store, f"{p}.ffn", x), dec_drop, 3 + 3 * i)
    # the copy mix
    copy_logits = s[..., M.COPY_HEAD, :, :]
    y = matmul(x, store["embedding.word"].transpose()) + store["output.bias"]
    copy = ad.scatter_copy(copy_logits, copy_ids, config.vocab_size)
    if vocab_mask is not None:
        copy = copy + Tensor(vocab_mask[..., None, :])
    gate = ad.sigmoid(matmul(x, store["gate.weight"]) + store["gate.bias"])
    gate = gate.reshape(*gate.shape, 1)
    return ad.softmax(gate * y + (1.0 - gate) * copy, axis=-1)


# -- the stage losses (`training._LOSS_FNS`) -----------------------------------


def denoise_loss(store, config, items, rng, rate):
    rows, blocks = [], []
    for ex in items:
        corrupted, picked = training._mask_tokens(ex.source_ids, ex.source_pad_mask,
                                                  config.vocab_size, rng)
        if len(picked):
            rows.append((ex, corrupted, picked))
            if rate > 0:
                blocks.append(rng.random(M.dropout_draws(config, len(ex.source_ids))))
    if not rows:
        return Tensor(0.0), 0
    pad = np.stack([ex.source_pad_mask for ex, _, _ in rows])
    n, s = pad.shape[-1], M.real_length(pad)
    drop = (M.dropout_scales(config, np.array(blocks), (n, 0), (s, 0), rate)[0]
            if rate > 0 else None)
    enc = encode(store, config, np.stack([c[:s] for _, c, _ in rows]), pad[:, :s], drop)
    row = np.concatenate([np.full(len(p), r) for r, (_, _, p) in enumerate(rows)])
    pos = np.concatenate([p for _, _, p in rows])
    original = np.concatenate([ex.source_ids[p] for ex, _, p in rows])
    logits = matmul(enc[(row, pos)], store["embedding.word"].transpose()) + store["mlm.bias"]
    picked_p = ad.softmax(logits, axis=-1)[(np.arange(len(pos)), original)]
    return -ad.log(ad.clamp_min(picked_p, training.CLAMP_FLOOR)).sum(), len(pos)


def summarize_loss(store, config, items, rng, rate):
    full = training._stack(items)
    batch, kept = training._cut(full)
    lengths = (full.source_ids.shape[-1], full.target_ids.shape[-1])
    drop = training._row_draws(rng, rate, config, len(items), lengths, kept)
    probs = forward_teacher_forced(store, config, batch, drop=drop)
    loss, n = training.mle_loss(probs, batch.target_ids, batch.target_pad_mask)
    return loss * n, n


def select_loss(store, config, items, rng, rate):
    full = training._stack([ex for ex, _ in items])
    batch, (s, _) = training._cut(full)
    drop = training._row_draws(rng, rate, config, len(items),
                               (full.source_ids.shape[-1], 0), (s, 0))
    enc = encode(store, config, batch.source_ids, batch.source_pad_mask,
                 None if drop is None else drop[0])
    pred = ad.sigmoid(matmul(enc, store["selector.weight"]) + store["selector.bias"])
    labels = np.concatenate([y for _, y in items])
    return sel.selector_loss(pred, labels, batch.source_pad_mask) * len(labels), len(labels)


LOSS_FNS = {"denoise": denoise_loss, "summarize": summarize_loss, "select": select_loss}
