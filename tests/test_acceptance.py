"""Acceptance gate: eleven end-to-end behavioral criteria.

Each test prints one `[criterion N] PASS/FAIL` line (visible with `pytest -s`
or in the captured output of a failure).  The multi-stage experiments share a
session-scoped pipeline fixture; everything is seeded and bit-reproducible.
"""

import itertools
import time
from functools import lru_cache

import numpy as np
import pytest

from stagesum import autodiff as ad
from stagesum import corpus as C
from stagesum import harness
from stagesum import kernels
from stagesum import metrics
from stagesum import model as M
from stagesum import selection as sel
from stagesum import training
from stagesum.checkpoint import InitScheme, apply_partial, apply_scheme, init_random
from stagesum.config import RunConfig
from stagesum.tokenizer import (BOS, EOS, PAD, EncodedExample, Vocabulary,
                                wordpiece_tokenize)
from stagesum.training import TrainConfig, mle_loss


def report(num, name, ok, detail):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def softmax_np(x):
    e = np.exp(x - x.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# Shared experiment recipe (frozen)

VOCAB_SIZE = 96
SEEDS = (0, 1, 2)
MODEL = dict(num_layers=2, hidden_size=32, num_heads=4, ffn_size=64,
             vocab_size=VOCAB_SIZE, encoder_positions=112, decoder_positions=16)
DENOISE_EPOCHS = 10
SHORTFORM_EPOCHS = 12
LONGFORM_EPOCHS = 4
SELECTOR_TRAIN_N = 60
SELECTOR_EPOCHS = 1


def train_cfg(seed, epochs):
    return TrainConfig(lr=3e-3, dropout=0.1, batch_size=16, max_epochs=epochs,
                       seed=seed)


def norm(text):
    return metrics.normalize_for_rouge(text)


def encode_corpus(pairs, vocab, source_limit, target_limit):
    return harness.encode_corpus(harness.tokenize_corpus(pairs, vocab), vocab,
                                 source_limit, target_limit)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """3-seed multi-stage chains plus the layer-wise longform sweep."""
    t0 = time.time()
    out = tmp_path_factory.mktemp("pipeline")
    vocab = Vocabulary(C.build_vocab_pieces(VOCAB_SIZE))
    mcfg = M.ModelConfig(**MODEL)
    gen = C.generate(C.CorpusSpec("generic", 800, input_range=(2, 5),
                                  output_range=(0, 0), alpha_abs=0.0, seed=11))
    sf = C.generate(C.CorpusSpec("shortform", 400, input_range=(2, 3),
                                 output_range=(1, 1), alpha_abs=0.5, seed=12))
    lf = C.generate(C.CorpusSpec("longform", 150, input_range=(11, 15),
                                 output_range=(3, 3), alpha_abs=0.2, seed=13))
    gen_enc = encode_corpus(gen, vocab, 40, 1)
    sf_enc = encode_corpus(sf, vocab, 24, 8)
    sf_dev = list(zip(sf_enc[360:], [s for _, s in sf[360:]]))
    lf_tr = encode_corpus(lf[:120], vocab, 112, 16)
    lf_dev_enc = encode_corpus(lf[120:], vocab, 112, 16)
    lf_dev = list(zip(lf_dev_enc, [s for _, s in lf[120:]]))

    k_scores = {k: [] for k in range(5)}
    one_scores = []
    artifacts = {}
    for seed in SEEDS:
        bert, _ = training.denoise_pretrain(
            mcfg, train_cfg(seed, DENOISE_EPOCHS), gen_enc[:720], gen_enc[720:])
        bert_path = str(out / f"bert{seed}.ckpt")
        bert.save(bert_path)
        bb, _ = apply_scheme(InitScheme(encoder=bert_path, decoder="symmetric"),
                             mcfg, seed)
        sfs, sf_rep = training.train_stage(
            bb, mcfg, sf_enc[:360], sf_dev, train_cfg(seed, SHORTFORM_EPOCHS),
            vocab)
        for k in range(5):
            init, _ = apply_partial(sfs, mcfg, k, seed)
            store, rep = training.train_stage(
                init, mcfg, lf_tr, lf_dev, train_cfg(seed, LONGFORM_EPOCHS),
                vocab)
            k_scores[k].append(rep.best_metric)
            if k == 4 and seed == 0:
                artifacts["lf_two_step"] = store
                artifacts["lf_two_step_rl"] = rep.best_metric
        br, _ = apply_scheme(InitScheme(encoder=bert_path), mcfg, seed)
        _, one_rep = training.train_stage(
            br, mcfg, lf_tr, lf_dev, train_cfg(seed, LONGFORM_EPOCHS), vocab)
        one_scores.append(one_rep.best_metric)
        if seed == 0:
            artifacts["sf_model"] = sfs

    def labels_for(pairs, encs):
        labels = []
        for (doc, summary), ex in zip(pairs, encs):
            y = sel.build_labels(wordpiece_tokenize(doc, vocab),
                                 wordpiece_tokenize(summary, vocab))
            labels.append(y[: int((~ex.source_pad_mask).sum())])
        return labels

    return dict(
        vocab=vocab, mcfg=mcfg, elapsed=time.time() - t0,
        sf_pairs=sf, sf_dev=sf_dev,
        lf_pairs=lf, lf_tr=lf_tr, lf_dev=lf_dev, lf_dev_enc=lf_dev_enc,
        lf_train_labels=labels_for(lf[:120], lf_tr),
        lf_dev_labels=labels_for(lf[120:], lf_dev_enc),
        k_scores=k_scores, one_scores=one_scores, **artifacts)


def dev_rouge_l(pipe, hyps):
    return float(np.mean([metrics.rouge_l(norm(ref), norm(hyp))[2]
                          for (_, ref), hyp in zip(pipe["lf_dev"], hyps)]))


# ---------------------------------------------------------------------------
# Criterion 1: gradient integrity


def test_criterion_1_gradient_integrity():
    t0 = time.time()
    cfg = M.ModelConfig(num_layers=2, hidden_size=16, num_heads=2, ffn_size=32,
                        vocab_size=24, encoder_positions=12,
                        decoder_positions=8)
    store = init_random(cfg, 0)
    for name in store.names():
        if name.endswith("weight") or name.startswith("embedding."):
            store[name].data *= 8.0  # healthy gradient magnitudes for FD

    src = [5, 6, 7, 8, 9, 10]
    tgt = [5, 7, 9, EOS]
    source = np.full(cfg.encoder_positions, PAD, dtype=np.int64)
    source[: len(src)] = src
    target = np.full(cfg.decoder_positions, PAD, dtype=np.int64)
    target[: len(tgt)] = tgt
    ex = EncodedExample(
        source_ids=source, target_ids=target,
        source_pad_mask=np.arange(cfg.encoder_positions) >= len(src),
        target_pad_mask=np.arange(cfg.decoder_positions) >= len(tgt),
        source_truncated=False, target_truncated=False)
    selected = np.zeros(cfg.encoder_positions, dtype=bool)
    selected[[0, 2, 3]] = True  # exercises the selection mask in the loss

    def loss_value():
        with ad.no_grad():
            probs, _ = M.forward_teacher_forced(store, cfg, ex, selected=selected)
            loss, _ = mle_loss(probs, ex.target_ids, ex.target_pad_mask)
        return float(loss.data)

    with ad.new_tape():
        probs, _ = M.forward_teacher_forced(store, cfg, ex, selected=selected)
        loss, _ = mle_loss(probs, ex.target_ids, ex.target_pad_mask)
        loss.backward()
    # every parameter is reached from the loss through the recorded graph,
    # as backward walks it (parameter gradients are views of the store's
    # zeroed arena, so `grad is not None` no longer shows a parameter reached)
    reached, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in reached:
            reached.add(id(t))
            stack.extend(t._parents)

    h = 1e-5
    max_rel = 0.0
    n_checked = 0
    for name in store.names():
        assert id(store[name]) in reached, name
        grad = store[name].grad
        flat_g = grad.reshape(-1)
        data = store[name].data.reshape(-1)
        for idx in np.argsort(-np.abs(flat_g))[:4]:
            orig = data[idx]
            data[idx] = orig + h
            fp = loss_value()
            data[idx] = orig - h
            fm = loss_value()
            data[idx] = orig
            fd = (fp - fm) / (2 * h)
            an = flat_g[idx]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            max_rel = max(max_rel, rel)
            n_checked += 1
    elapsed = time.time() - t0
    report(1, "gradient integrity", max_rel < 1e-4 and elapsed < 120,
           f"max rel err {max_rel:.2e} over {n_checked} coords, {elapsed:.0f}s")


def decode_row(store, cfg, source, pad, prefix, selected=None):
    """The decoder's step state after feeding `prefix` (BOS first), for one
    sequence of one source: every field without its [sources, rows] axes."""
    state = M.start_decode(store, cfg, source[None], pad[None],
                           None if selected is None else selected[None])
    for tok in prefix:
        step = M.decode_step(store, cfg, state, [[tok]])
    return M.DecoderStepState(**{k: v[0, 0] for k, v in vars(step).items()})


# ---------------------------------------------------------------------------
# Criterion 2: copy-gate limits


def test_criterion_2_copy_gate_limits():
    cfg = M.ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                        vocab_size=12, encoder_positions=6,
                        decoder_positions=4)
    worst = 0.0
    for seed in range(100):
        store = init_random(cfg, seed)
        rng = np.random.default_rng(seed)
        src = rng.integers(5, cfg.vocab_size, 4)
        source = np.concatenate([src, [PAD, PAD]]).astype(np.int64)
        pad = np.array([False] * 4 + [True] * 2)
        for sign, pure in (( +20.0, "gen"), (-20.0, "copy")):
            store["gate.bias"].data[...] = sign
            state = decode_row(store, cfg, source, pad, np.array([BOS]))
            dist = softmax_np(state.mixed_logits)
            if pure == "gen":
                ref = softmax_np(state.gen_logits)
            else:
                ref = softmax_np(kernels.scatter_copy_forward(
                    state.copy_logits[None, :],
                    np.where(pad, -1, source), cfg.vocab_size)[0])
            worst = max(worst, float(np.abs(dist - ref).max()))
    report(2, "copy-gate limits", worst < 1e-9,
           f"max distribution deviation {worst:.2e} over 100 models x 2 limits")


# ---------------------------------------------------------------------------
# Criterion 3: masking suppression


def test_criterion_3_masking_suppression():
    cfg = M.ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                        vocab_size=24, encoder_positions=10,
                        decoder_positions=6)
    worst = 0.0
    checked = 0
    for seed in range(20):
        store = init_random(cfg, seed)
        rng = np.random.default_rng(seed + 1000)
        src = rng.integers(5, cfg.vocab_size, 8)
        source = np.concatenate([src, [PAD, PAD]]).astype(np.int64)
        pad = np.array([False] * 8 + [True] * 2)
        selected = np.zeros(10, dtype=bool)
        selected[rng.choice(8, 3, replace=False)] = True
        blocked_types = np.setdiff1d(src, src[selected[:8]])
        if blocked_types.size == 0:
            continue
        prefix = [BOS]
        for _ in range(4):
            state = decode_row(store, cfg, source, pad, np.array(prefix),
                               selected=selected)
            # copy-path distribution in vocabulary space, after masking
            ax = kernels.scatter_copy_forward(
                state.copy_logits[None, :], np.where(pad, -1, source),
                cfg.vocab_size)[0]
            ax += M.selection_vocab_mask_add(source, pad, selected,
                                             cfg.vocab_size)
            copy_dist = softmax_np(ax)
            worst = max(worst, float(copy_dist[blocked_types].max()))
            # per-position form on the raw copy logits
            pos_dist = softmax_np(state.copy_logits[:8]
                                  + np.where(selected[:8], 0.0, M.NEG_MASK))
            worst = max(worst, float(pos_dist[~selected[:8]].max()))
            checked += 1
            nxt = int(np.argmax(state.mixed_logits))
            prefix.append(nxt if nxt != EOS else 5)
    report(3, "masking suppression", worst < 1e-40,
           f"max masked copy probability {worst:.1e} over {checked} steps")


# ---------------------------------------------------------------------------
# Criterion 4: oracle selection semantics


def test_criterion_4_oracle_selection_semantics(pipeline):
    vocab = pipeline["vocab"]
    precisions = []
    recalls_vs_summary = []
    for doc, summary in pipeline["lf_pairs"]:
        src = wordpiece_tokenize(doc, vocab)
        tgt = wordpiece_tokenize(summary, vocab)
        y = sel.build_labels(src, tgt)
        p, _, _ = metrics.coverage_prf(y.astype(bool), y.astype(bool))
        precisions.append(p)
        covered = {src[i] for i in np.flatnonzero(y)}
        recalls_vs_summary.append(
            sum(1 for t in tgt if t in covered) / len(tgt))
    prec_exact = all(p == 1.0 for p in precisions)
    mean_recall = float(np.mean(recalls_vs_summary))
    report(4, "oracle selection semantics",
           prec_exact and mean_recall < 1.0,
           f"oracle precision exactly 1.0 on {len(precisions)} examples, "
           f"piece recall vs summary {mean_recall:.3f} < 1 at alpha=0.2")


# ---------------------------------------------------------------------------
# Criteria 5 + 6: multi-stage benefit and layer-wise sweep


def test_criterion_5_multistage_benefit(pipeline):
    zero = float(np.mean(pipeline["k_scores"][0]))
    one = float(np.mean(pipeline["one_scores"]))
    two = float(np.mean(pipeline["k_scores"][4]))
    margin = 100.0 * (two - zero)
    ok = (two >= one >= zero) and margin >= 1.0 \
        and pipeline["elapsed"] <= 7200
    report(5, "multi-stage benefit", ok,
           f"zero {zero:.3f} <= one {one:.3f} <= two {two:.3f}, "
           f"margin {margin:.1f} pts, pipeline {pipeline['elapsed']:.0f}s")


def test_criterion_6_layerwise_sweep(pipeline):
    xs, ys = [], []
    for k in range(5):
        for v in pipeline["k_scores"][k]:
            xs.append(float(k))
            ys.append(v)
    r = metrics.pearson_r(xs, ys)
    diffs = np.array(pipeline["k_scores"][1]) - np.array(pipeline["k_scores"][0])
    noise = 2.0 * float(diffs.std(ddof=1))
    shallow_ok = float(diffs.mean()) <= noise
    report(6, "layer-wise sweep", r > 0.5 and shallow_ok,
           f"pearson {r:.3f} > 0.5; k=1 vs random mean diff "
           f"{diffs.mean():.3f} <= 2-sigma noise {noise:.3f}")


# ---------------------------------------------------------------------------
# Criterion 7: oracle-selection uplift


def test_criterion_7_oracle_selection_uplift(pipeline):
    mcfg = pipeline["mcfg"]
    vocab = pipeline["vocab"]
    lf_model = pipeline["lf_two_step"]
    dev_enc = pipeline["lf_dev_enc"]
    dev_labels = pipeline["lf_dev_labels"]

    dev_pad = np.stack([ex.source_pad_mask for ex in dev_enc])
    oracle_rl = dev_rouge_l(pipeline, training.decode_corpus(
        lf_model, mcfg, dev_enc, vocab,
        selected=sel.selection_mask(dev_labels, dev_pad)))

    train_data = list(zip(pipeline["lf_tr"][:SELECTOR_TRAIN_N],
                          pipeline["lf_train_labels"][:SELECTOR_TRAIN_N]))
    selector, _ = training.train_stage(
        init_random(mcfg, 0, arch="selector"), mcfg, train_data,
        list(zip(dev_enc, dev_labels)),
        train_cfg(0, SELECTOR_EPOCHS), stage="select")
    probs, labels = [], []
    with ad.no_grad():
        for ex, y in zip(dev_enc, dev_labels):
            enc = M.encode(selector, mcfg, ex.source_ids, ex.source_pad_mask)
            probs.append(sel.selector_forward(selector, enc)
                         .data[~ex.source_pad_mask])
            labels.append(y)
    eps = sel.calibrate_threshold(np.concatenate(probs), np.concatenate(labels))

    model_selected = []
    with ad.no_grad():
        for ex in dev_enc:
            enc = M.encode(selector, mcfg, ex.source_ids, ex.source_pad_mask)
            p = sel.selector_forward(selector, enc).data
            model_selected.append((p > eps) & ~ex.source_pad_mask)

    model_rl = dev_rouge_l(pipeline, training.decode_corpus(
        lf_model, mcfg, dev_enc, vocab, selected=np.stack(model_selected)))
    gap = 100.0 * (oracle_rl - model_rl)
    report(7, "oracle-selection uplift", gap >= 5.0,
           f"oracle RL {oracle_rl:.3f} vs model-selected RL {model_rl:.3f}, "
           f"gap {gap:.1f} pts >= 5")


# ---------------------------------------------------------------------------
# Criterion 8: metric oracles


@lru_cache(maxsize=None)
def _brute_lcs(a, b):
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return _brute_lcs(a[:-1], b[:-1]) + 1
    return max(_brute_lcs(a[:-1], b), _brute_lcs(a, b[:-1]))


def _brute_auc_roc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        total += (p > neg).sum() + 0.5 * (p == neg).sum()
    return total / (len(pos) * len(neg))


def _brute_auc_pr(scores, labels):
    n_pos = int(labels.sum())
    area = prev_recall = 0.0
    for thr in sorted(set(scores.tolist()), reverse=True):
        keep = scores >= thr
        tp = int(labels[keep].sum())
        area += (tp / n_pos - prev_recall) * (tp / int(keep.sum()))
        prev_recall = tp / n_pos
    return area


def _exhaustive_best_f1(probs, labels):
    qs = np.unique(probs)
    cands = [(qs[i] + qs[i + 1]) / 2 for i in range(len(qs) - 1)]
    best = -1.0
    for t in cands:
        selected = probs > t
        _, _, f1 = metrics.coverage_prf(selected, labels.astype(bool))
        best = max(best, f1)
    return best


def test_criterion_8_metric_oracles():
    # rouge_l vs brute force: exhaustive over short sequences, sampled to 10
    seqs = [tuple(s) for L in range(5) for s in itertools.product(range(4),
                                                                  repeat=L)]
    for a in seqs:
        for b in seqs:
            lcs = _brute_lcs(a, b)
            if not a or not b:
                assert metrics.rouge_l(list(a), list(b)) == (0.0, 0.0, 0.0)
            else:
                p, r, _ = metrics.rouge_l(list(a), list(b))
                assert p == lcs / len(b) and r == lcs / len(a)
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = tuple(rng.integers(0, 4, rng.integers(1, 11)).tolist())
        b = tuple(rng.integers(0, 4, rng.integers(1, 11)).tolist())
        lcs = _brute_lcs(a, b)
        p, r, _ = metrics.rouge_l(list(a), list(b))
        assert p == lcs / len(b) and r == lcs / len(a)

    # auc vs pairwise brute force on 200-point sets
    max_auc_err = 0.0
    for trial in range(10):
        scores = np.round(rng.random(200), 2)
        labels = (rng.random(200) < 0.35).astype(np.int64)
        if labels.sum() in (0, 200):
            continue
        out = metrics.auc(scores, labels)
        max_auc_err = max(
            max_auc_err,
            abs(out["auc_roc"] - _brute_auc_roc(scores, labels)),
            abs(out["auc_pr"] - _brute_auc_pr(scores, labels)))
    assert max_auc_err < 1e-9

    # calibrate_threshold vs exhaustive midpoint search on 1000 sets
    for trial in range(1000):
        n = int(rng.integers(4, 40))
        probs = np.round(rng.random(n), 2)
        labels = (rng.random(n) < 0.5).astype(np.int64)
        if labels.sum() in (0, n) or len(np.unique(probs)) < 2:
            continue
        eps = sel.calibrate_threshold(probs, labels)
        _, _, f1_at_eps = metrics.coverage_prf(probs > eps, labels.astype(bool))
        best = _exhaustive_best_f1(probs, labels)
        assert abs(f1_at_eps - best) < 1e-12, trial
    report(8, "metric oracles", True,
           f"rouge_l exhaustive<=4 + 200 sampled<=10; auc err {max_auc_err:.1e}"
           "; calibrate matches exhaustive midpoints on 1000 sets")


# ---------------------------------------------------------------------------
# Criterion 9: determinism


def test_criterion_9_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("STAGESUM_OUT", str(tmp_path))
    model = dict(num_layers=1, hidden_size=16, num_heads=2, ffn_size=32,
                 vocab_size=96, encoder_positions=24, decoder_positions=8)
    gen_cfg = RunConfig(out_dir="data", generate={
        "vocab_size": 96,
        "corpora": [{"name": "short", "kind": "shortform", "num_examples": 40,
                     "input_range": [2, 3], "output_range": [1, 1],
                     "alpha_abs": 0.5, "seed": 1, "dev_examples": 8}]})
    harness.run_generate(gen_cfg)

    def run_once(tag):
        train = RunConfig(
            out_dir=f"train-{tag}", seed=0, model=model,
            vocab="data/vocab.txt",
            corpus={"train": "data/short.train.tsv",
                    "dev": "data/short.dev.tsv"},
            train={"lr": 1e-3, "dropout": 0.1, "batch_size": 8,
                   "max_epochs": 2})
        result = harness.run_train(train)
        decode = RunConfig(
            out_dir=f"decode-{tag}", model=model, vocab="data/vocab.txt",
            corpus={"dev": "data/short.dev.tsv"},
            checkpoint=result["checkpoint"])
        decoded = harness.run_decode(decode)
        ckpt_bytes = open(result["checkpoint"], "rb").read()
        dec_bytes = open(decoded, "rb").read()
        rep_bytes = open(tmp_path / f"train-{tag}" / "train_report.txt",
                         "rb").read()
        return ckpt_bytes, dec_bytes, rep_bytes

    a = run_once("a")
    b = run_once("b")
    identical = all(x == y for x, y in zip(a, b))
    report(9, "determinism", identical,
           "checkpoint, decoded output, and training report bitwise equal "
           "across repeated runs")


# ---------------------------------------------------------------------------
# Criterion 10: overfit sanity


def test_criterion_10_overfit_sanity():
    vocab = Vocabulary(C.build_vocab_pieces(VOCAB_SIZE))
    mcfg = M.ModelConfig(**MODEL)
    doc, summary = C.generate(C.CorpusSpec("shortform", 1, input_range=(2, 3),
                                           output_range=(1, 1),
                                           alpha_abs=0.5, seed=21))[0]
    ex = encode_corpus([(doc, summary)], vocab, 24, 8)[0]
    _, rep = training.train_stage(
        init_random(mcfg, 0), mcfg, [ex], [(ex, summary)],
        TrainConfig(lr=3e-3, dropout=0.0, batch_size=1, max_epochs=60, seed=0),
        vocab)
    report(10, "overfit sanity", rep.best_metric >= 0.99,
           f"single-example dev-on-train ROUGE-L {rep.best_metric:.3f} "
           f">= 0.99 (epoch {rep.best_epoch} of 60)")


# ---------------------------------------------------------------------------
# Criterion 11: abstraction-rate tracking


def test_criterion_11_abstraction_tracking(pipeline):
    mcfg = pipeline["mcfg"]
    vocab = pipeline["vocab"]
    hyps = training.decode_corpus(pipeline["sf_model"], mcfg,
                                  [ex for ex, _ in pipeline["sf_dev"]], vocab)
    sf_dev_pairs = pipeline["sf_pairs"][360:]
    hyp_rates = [metrics.abstraction_rate(norm(doc), norm(h))
                 for h, (doc, _) in zip(hyps, sf_dev_pairs) if norm(h)]
    corpus_rates = [metrics.abstraction_rate(norm(doc), norm(s))
                    for doc, s in sf_dev_pairs]
    hyp_rate = float(np.mean(hyp_rates))
    corpus_rate = float(np.mean(corpus_rates))
    report(11, "abstraction-rate tracking",
           5.0 < hyp_rate < corpus_rate,
           f"model output {hyp_rate:.1f}% strictly between 5% and corpus "
           f"{corpus_rate:.1f}% on {len(hyp_rates)} dev examples")
