"""Experiment orchestration: the work behind each CLI subcommand.

Every stage reads a RunConfig, writes its artifacts under the run
directory, and is bitwise reproducible from config plus seed.  A stage
creates its run directory only once its inputs have been accepted, so a
rejected config, corpus or checkpoint leaves nothing behind.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import corpus as corpus_mod
from . import metrics
from . import selection as sel
from . import training
from .checkpoint import (InitScheme, ParamStore, apply_partial, apply_scheme,
                         check_compatible, format_surgery_report)
from .config import RunConfig
from .tokenizer import (Vocabulary, encode_pair, read_corpus, wordpiece_tokenize,
                        write_corpus)


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
        f.write(text)


def tokenize_corpus(pairs, vocab):
    """Each (document, summary) pair as its two word-piece lists, as
    `wordpiece_tokenize` gives them.  Each distinct lowercased,
    whitespace-separated chunk of the corpus is tokenized once."""
    chunks = {}

    def tokenize(text):
        out = []
        for chunk in text.lower().split():
            pieces = chunks.get(chunk)
            if pieces is None:
                pieces = chunks[chunk] = wordpiece_tokenize(chunk, vocab)
            out += pieces
        return out

    return [(tokenize(doc), tokenize(summary)) for doc, summary in pairs]


def encode_corpus(pieces, vocab, source_limit, target_limit):
    return [encode_pair(src, tgt, vocab, source_limit, target_limit)
            for src, tgt in pieces]


# the corpus splits each stage reads: (required, read when configured)
_SPLITS = {"pretrain": (("train",), ("dev",)), "train": (("train",), ("dev",)),
           "select-train": (("train", "dev"), ()), "decode": (("dev",), ())}


def _load_data(cfg: RunConfig, stage: str):
    """The vocabulary and each split `stage` reads: raw, tokenized once and
    encoded, with its pair count and the shares of its sources and targets
    the limits truncated in data["report"].  A required split the config
    does not name, and a split file with no pairs, are rejected, as is an
    empty summary in a stage that trains on summaries; splits the stage does
    not read are not opened."""
    required, optional = _SPLITS[stage]
    for split in required:
        if not cfg.corpus.get(split):
            raise ValueError(f"this stage needs corpus.{split}, which the config "
                             "does not name")
    vocab = Vocabulary.load(cfg.resolve(cfg.vocab))
    out = {"vocab": vocab, "report": {}}
    for split in required + optional:
        path = cfg.corpus.get(split)
        if path:
            pairs = read_corpus(cfg.resolve(path),
                                require_summary=stage in ("train", "select-train"))
            if not pairs:
                name = "training" if split == "train" else split
                raise ValueError(f"{name} corpus is empty: corpus.{split} "
                                 f"{cfg.resolve(path)} holds no pairs")
            pieces = tokenize_corpus(pairs, vocab)
            out[split] = pairs
            out[f"{split}_pieces"] = pieces
            out[f"{split}_enc"] = enc = encode_corpus(pieces, vocab, cfg.source_limit(),
                                                      cfg.target_limit())
            out["report"][f"{split}_pairs"] = len(enc)
            for side in ("source", "target"):
                out["report"][f"{split}_{side}_truncated_rate"] = float(
                    np.mean([getattr(ex, f"{side}_truncated") for ex in enc]))
    return out


def _labels_for(pieces, examples):
    """Alignment labels of each tokenized pair, cut to its encoded example's
    real source positions (one label per source piece; truncation drops the
    tail)."""
    return [sel.build_labels(src, tgt)[:int((~ex.source_pad_mask).sum())]
            for (src, tgt), ex in zip(pieces, examples)]


def run_generate(cfg: RunConfig) -> dict:
    """Emit corpus files, the vocabulary, and sidecar spec records; every
    corpus entry is checked before anything is written."""
    vocab_size = int(cfg.generate.get("vocab_size", 96))
    vocab = Vocabulary(corpus_mod.build_vocab_pieces(vocab_size))
    entries = []
    for entry in cfg.generate.get("corpora", []):
        entry = dict(entry)
        name = entry.pop("name", None)
        if not name:
            raise corpus_mod.SpecError("every corpus entry needs a name")
        dev_n = int(entry.pop("dev_examples", 0))
        entry.setdefault("vocab_size", vocab_size)
        spec = corpus_mod.CorpusSpec(**entry)
        if not 0 <= dev_n <= spec.num_examples:
            raise corpus_mod.SpecError(f"corpus {name!r}: dev_examples {dev_n} "
                                       f"outside 0..{spec.num_examples}")
        entries.append((name, dev_n, spec))
    out_dir = _ensure_dir(cfg.run_dir)
    vocab.save(os.path.join(out_dir, "vocab.txt"))
    written = {"vocab": os.path.join(out_dir, "vocab.txt")}
    for name, dev_n, spec in entries:
        pairs = corpus_mod.generate(spec)
        train_pairs = pairs[: len(pairs) - dev_n]
        dev_pairs = pairs[len(pairs) - dev_n:]
        train_path = os.path.join(out_dir, f"{name}.train.tsv")
        write_corpus(train_pairs, train_path)
        written[f"{name}.train"] = train_path
        if dev_pairs:
            dev_path = os.path.join(out_dir, f"{name}.dev.tsv")
            write_corpus(dev_pairs, dev_path)
            written[f"{name}.dev"] = dev_path
        _write(out_dir, f"{name}.spec.json", corpus_mod.spec_sidecar(spec))
    return written


def run_pretrain(cfg: RunConfig) -> str:
    """Masked-token denoising stage; writes the generic-stage checkpoint."""
    _reject_unused_init(cfg, "pretrain")
    data = _load_data(cfg, "pretrain")
    mcfg = cfg.model_config()
    tcfg = cfg.train_config()
    store, report = training.denoise_pretrain(mcfg, tcfg, data["train_enc"],
                                              data.get("dev_enc", []))
    store.provenance = ["denoise-stage"]
    out_dir = _ensure_dir(cfg.run_dir)
    _write(out_dir, "data_report.txt", metrics.format_report(data["report"]))
    ckpt = os.path.join(out_dir, "checkpoint.ckpt")
    store.save(ckpt)
    _write_report(out_dir, report)
    return ckpt


def _write_report(out_dir: str, report: training.TrainReport) -> None:
    """train_report.txt, and its wall-clock timings in timings.json beside it."""
    _write(out_dir, "train_report.txt", report.format())
    _write(out_dir, "timings.json", json.dumps(
        {"initial_dev_eval_s": report.initial_dev_eval_s, "epochs": report.timings},
        indent=1) + "\n")


def _reject_unused_init(cfg: RunConfig, stage: str) -> None:
    """ValueError naming the initialization keys `stage` would ignore:
    pretrain starts from random parameters, train initializes from
    `partial` or `scheme` but not both, and a selector has no decoder."""
    keys = {"pretrain": [("partial", cfg.partial), ("scheme", cfg.scheme)],
            "train": [("partial and scheme", cfg.partial and cfg.scheme)],
            "select-train": [("partial", cfg.partial),
                             ("scheme.decoder", (cfg.scheme or {}).get("decoder"))]}
    unused = [key for key, value in keys[stage] if value]
    if unused:
        raise ValueError(f"{stage} cannot take {' and '.join(unused)}")


def build_init_store(cfg: RunConfig, arch: str = "seq2seq") -> tuple[ParamStore, dict]:
    """The initial `arch` store and its surgery report, from the config's
    `partial` source or its `scheme`."""
    mcfg = cfg.model_config()
    if cfg.partial:
        source = ParamStore.load(cfg.resolve(cfg.partial["source"]))
        return apply_partial(source, mcfg, int(cfg.partial["k"]), cfg.seed)
    scheme = cfg.scheme or {}
    decoder = scheme.get("decoder")
    init = InitScheme(encoder=cfg.resolve(scheme.get("encoder")),
                      decoder=decoder if decoder == "symmetric" else cfg.resolve(decoder))
    return apply_scheme(init, mcfg, cfg.seed, arch=arch)


def run_train(cfg: RunConfig) -> dict:
    """Summarization fine-tuning under the configured initialization."""
    _reject_unused_init(cfg, "train")
    data = _load_data(cfg, "train")
    mcfg = cfg.model_config()
    tcfg = cfg.train_config()
    store, surgery = build_init_store(cfg)
    dev = list(zip(data.get("dev_enc", []),
                   [s for _, s in data.get("dev", [])]))
    best, report = training.train_stage(store, mcfg, data["train_enc"], dev,
                                        tcfg, data["vocab"])
    best.provenance = list(store.provenance) + ["summarize-stage"]
    out_dir = _ensure_dir(cfg.run_dir)
    _write(out_dir, "data_report.txt", metrics.format_report(data["report"]))
    _write(out_dir, "surgery_report.txt", format_surgery_report(surgery))
    ckpt = os.path.join(out_dir, "checkpoint.ckpt")
    best.save(ckpt)
    _write_report(out_dir, report)
    return {"checkpoint": ckpt, "best_epoch": report.best_epoch,
            "best_metric": report.best_metric}


def run_select_train(cfg: RunConfig) -> dict:
    """Train the content selector; writes checkpoint, threshold and a report
    of the calibrated selector on the pooled dev positions."""
    _reject_unused_init(cfg, "select-train")
    data = _load_data(cfg, "select-train")
    mcfg = cfg.model_config()
    tcfg = cfg.train_config()
    train_labels = _labels_for(data["train_pieces"], data["train_enc"])
    dev_labels = _labels_for(data["dev_pieces"], data["dev_enc"])
    init, surgery = build_init_store(cfg, arch="selector")
    train_data = list(zip(data["train_enc"], train_labels))
    dev_data = list(zip(data["dev_enc"], dev_labels))
    best, report = training.train_stage(init, mcfg, train_data, dev_data, tcfg,
                                        stage="select")
    best.provenance = list(init.provenance) + ["select-stage"]
    # calibrate the mask threshold on the pooled dev probabilities of the
    # best epoch, the store `best` holds
    probs = report.best_dev_probs
    labels = np.concatenate(dev_labels)
    eps = sel.calibrate_threshold(probs, labels)
    out_dir = _ensure_dir(cfg.run_dir)
    _write(out_dir, "data_report.txt", metrics.format_report(data["report"]))
    _write(out_dir, "surgery_report.txt", format_surgery_report(surgery))
    ckpt = os.path.join(out_dir, "selector.ckpt")
    best.save(ckpt)
    _write(out_dir, "threshold.txt", f"{eps!r}\n")
    _write(out_dir, "selector_report.txt",
           metrics.format_report(_selector_report(probs, labels, eps)))
    _write_report(out_dir, report)
    return {"checkpoint": ckpt, "threshold": eps, "best_f1": report.best_metric}


def _selector_report(probs, labels, eps: float) -> dict:
    """Pooled dev AUC-ROC/PR of selector probabilities, and label coverage
    P/R/F1 of the positions selected above the threshold eps."""
    report = metrics.auc(probs, labels)
    p, r, f1 = metrics.coverage_prf(probs > eps, labels)
    report.update(coverage_precision=p, coverage_recall=r, coverage_f1=f1)
    return report


def _threshold(cfg: RunConfig) -> float:
    """selection.threshold: a number, or a file holding one; ValueError
    naming the key or file when it is not one finite float."""
    thr = cfg.selection.get("threshold")
    where = "selection.threshold"
    if isinstance(thr, str):
        where = cfg.resolve(thr)
        with open(where) as f:
            thr = f.read().strip()
    try:
        value = None if isinstance(thr, bool) else float(thr)
    except (TypeError, ValueError):
        value = None
    if value is None or not np.isfinite(value):
        raise ValueError(f"{where}: threshold {thr!r} is not a finite number")
    return value


def _selection_fn(cfg: RunConfig, data, mcfg):
    """The [dev examples, source positions] selection mask for decoding, or
    None."""
    mode = cfg.selection.get("mode", "none")
    if mode == "none":
        return None
    examples = data["dev_enc"]
    if mode == "oracle":
        values = _labels_for(data["dev_pieces"], examples)
    elif mode == "model":
        selector = ParamStore.load(cfg.resolve(cfg.selection["selector"]))
        check_compatible(selector, mcfg, "selector")
        thr = _threshold(cfg)
        values = [p > thr for p in sel.selector_probs(selector, mcfg, examples)]
    else:
        raise ValueError(f"unknown selection mode {mode!r}")
    return sel.selection_mask(values, np.stack([ex.source_pad_mask for ex in examples]))


def run_decode(cfg: RunConfig) -> str:
    """Decode the dev corpus with the configured model; one summary per line."""
    mode = cfg.decode.get("mode", "greedy")
    beam_width = int(cfg.decode.get("beam_width", 4))
    training.check_decode_options(mode, beam_width)
    data = _load_data(cfg, "decode")
    mcfg = cfg.model_config()
    store = ParamStore.load(cfg.resolve(cfg.checkpoint))
    check_compatible(store, mcfg, "seq2seq")
    hyps = training.decode_corpus(
        store, mcfg, data["dev_enc"], data["vocab"], _selection_fn(cfg, data, mcfg),
        mode=mode, beam_width=beam_width, alpha=float(cfg.decode.get("alpha", 0.6)))
    out_dir = _ensure_dir(cfg.run_dir)
    _write(out_dir, "data_report.txt", metrics.format_report(data["report"]))
    _write(out_dir, "decoded.txt", "".join(h + "\n" for h in hyps))
    return os.path.join(out_dir, "decoded.txt")


def eval_summaries(ref_pairs, hypotheses) -> dict:
    refs = [metrics.normalize_for_rouge(s) for _, s in ref_pairs]
    hyps = [metrics.normalize_for_rouge(h) for h in hypotheses]
    report = metrics.rouge_report(refs, hyps).as_dict()
    rates = []
    for (doc, _), hyp in zip(ref_pairs, hyps):
        if hyp:
            rates.append(metrics.abstraction_rate(
                metrics.normalize_for_rouge(doc), hyp))
    report["abstraction_rate"] = float(np.mean(rates)) if rates else 0.0
    return report


def run_eval(cfg: RunConfig) -> dict:
    """ROUGE and abstraction-rate report for a decoded-output file."""
    ref_pairs = read_corpus(cfg.resolve(cfg.eval["references"]))
    with open(cfg.resolve(cfg.eval["hypotheses"]), encoding="utf-8") as f:
        hyps = [line.rstrip("\n") for line in f]
    report = eval_summaries(ref_pairs, hyps)
    _write(_ensure_dir(cfg.run_dir), "metrics.txt", metrics.format_report(report))
    return report


def _grid_run_one(base: dict, overrides: dict) -> dict:
    merged = dict(base)
    merged.update(overrides)
    sub = RunConfig(**merged)
    result = run_train(sub)
    # decode + score the dev set with the trained checkpoint, whose path is
    # already resolved: made absolute, run_decode's resolve leaves it as is
    sub2 = RunConfig(**{**merged, "checkpoint": os.path.abspath(result["checkpoint"])})
    decoded = run_decode(sub2)
    data_pairs = read_corpus(sub.resolve(sub.corpus["dev"]))
    with open(decoded, encoding="utf-8") as f:
        hyps = [line.rstrip("\n") for line in f]
    rep = eval_summaries(data_pairs, hyps)
    rep["best_epoch"] = result["best_epoch"]
    return rep


def _grid_cells(cfg: RunConfig) -> list[tuple[dict, dict, str]]:
    """(report row, config overrides, cell directory prefix) per grid row:
    one per named run of a "schemes" grid, one per k of a "layerwise" grid."""
    kind = cfg.grid.get("kind", "schemes")
    if kind == "schemes":
        return [({"name": entry["name"]},
                 {k: v for k, v in entry.items() if k != "name"}, entry["name"])
                for entry in cfg.grid["runs"]]
    if kind == "layerwise":
        return [({"name": f"k={k}", "k": int(k)},
                 {"partial": {"source": cfg.grid["source"], "k": int(k)}}, f"k{k}")
                for k in cfg.grid["ks"]]
    raise ValueError(f"unknown grid kind {kind!r}")


def run_grid(cfg: RunConfig) -> dict:
    """Comparative experiment grid; emits one report row per configuration.
    Every cell trains, decodes and scores; any cell that fails fails the grid."""
    base = dict(cfg.grid.get("base", {}))
    seeds = cfg.grid.get("seeds", [cfg.seed])
    rows = []
    for row, overrides, prefix in _grid_cells(cfg):
        row["seeds"] = [_grid_run_one(base, {
            **overrides, "seed": seed,
            "out_dir": os.path.join(cfg.out_dir, f"{prefix}-seed{seed}")})
            for seed in seeds]
        rows.append(row)

    lines = []
    xs, ys = [], []
    for row in rows:
        cells = row["seeds"]
        mean = {key: float(np.mean([r[key] for r in cells]))
                for key in ("rouge1_f1", "rouge2_f1", "rougeL_f1", "abstraction_rate")}
        spread = float(np.std([r["rougeL_f1"] for r in cells]))
        epochs = [r["best_epoch"] for r in cells]
        lines.append(
            f"{row['name']}\trouge1_f1={mean['rouge1_f1']!r}"
            f"\trouge2_f1={mean['rouge2_f1']!r}\trougeL_f1={mean['rougeL_f1']!r}"
            f"\tabstraction_rate={mean['abstraction_rate']!r}"
            f"\trougeL_spread={spread!r}\tbest_epochs={epochs!r}")
        if "k" in row:
            for r in cells:
                xs.append(row["k"])
                ys.append(r["rougeL_f1"])
    result = {"rows": rows}
    if xs and len(set(xs)) > 1:
        if len(set(ys)) > 1:
            r = metrics.pearson_r(xs, ys)
            lines.append(f"pearson_r\t{r!r}")
            result["pearson_r"] = r
        else:
            # every cell scored the same: the correlation is undefined
            lines.append("pearson_r\tundefined (zero variance)")
    out_dir = _ensure_dir(cfg.run_dir)
    _write(out_dir, "grid_report.txt", "\n".join(lines) + "\n")
    if xs:
        _write(out_dir, "layerwise_points.txt",
               "".join(f"{x}\t{y!r}\n" for x, y in zip(xs, ys)))
    result["report"] = "\n".join(lines) + "\n"
    return result
