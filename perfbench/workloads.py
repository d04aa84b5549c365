"""The three benchmark workloads, driven through stagesum's harness stages.

Each workload writes JSON run configs and calls `harness.run_*` with them,
exactly as the `stagesum <stage> config.json` CLI does.  `setup` generates
the corpora (and, for dev_decode, the checkpoints it decodes with); `unit`
runs the timed work once.  Every path in a config is relative to
STAGESUM_OUT, which the runner points at the run's work directory, so that
repeated units differ only in their directory prefix and their artifacts
can be compared byte for byte.
"""

from __future__ import annotations

import json
import os

from stagesum import harness
from stagesum.config import RunConfig

# The acceptance recipe's model and optimiser (tests/test_acceptance.py).
MODEL = dict(num_layers=2, hidden_size=32, num_heads=4, ffn_size=64,
             vocab_size=96, encoder_positions=112, decoder_positions=16)
TRAIN = dict(lr=3e-3, dropout=0.1, batch_size=16)

GENERIC = dict(kind="generic", input_range=[2, 5], output_range=[0, 0], alpha_abs=0.0)
SHORTFORM = dict(kind="shortform", input_range=[2, 3], output_range=[1, 1], alpha_abs=0.5)
LONGFORM = dict(kind="longform", input_range=[11, 15], output_range=[3, 3], alpha_abs=0.2)

GENERIC_LIMITS = {"source": 40, "target": 1}
SHORT_LIMITS = {"source": 24, "target": 8}
LONG_LIMITS = {"source": 112, "target": 16}


def run_stage(stage: str, path: str, **fields):
    """Write `fields` as a JSON run config at STAGESUM_OUT/path, load it back
    and run the harness stage on it."""
    full = os.path.join(os.environ["STAGESUM_OUT"], path)
    os.makedirs(os.path.dirname(full), exist_ok=True)
    with open(full, "w", encoding="utf-8") as f:
        json.dump(fields, f, indent=1, sort_keys=True)
    return getattr(harness, f"run_{stage}")(RunConfig.from_file(full))


def generate(setup_dir: str, seed: int, corpora: dict) -> str:
    """Corpora named by `corpora` ({name: (spec, train n, dev n)}), every one
    seeded from the workload seed; returns the data directory."""
    data = f"{setup_dir}/data"
    entries = []
    for i, (name, (spec, n_train, n_dev)) in enumerate(sorted(corpora.items())):
        entries.append(dict(spec, name=name, num_examples=n_train + n_dev,
                            dev_examples=n_dev, seed=seed * 16 + i))
    run_stage("generate", f"{setup_dir}/cfg/generate.json", out_dir=data,
              generate={"vocab_size": MODEL["vocab_size"], "corpora": entries})
    return data


def train_fields(seed, data, corpus, limits, epochs, dev=False, lr=TRAIN["lr"]):
    split = {"train": f"{data}/{corpus}.train.tsv"}
    if dev:
        split["dev"] = f"{data}/{corpus}.dev.tsv"
    return dict(seed=seed, model=MODEL, vocab=f"{data}/vocab.txt", corpus=split,
                limits=limits, train=dict(TRAIN, max_epochs=epochs, lr=lr))


class StagedTrain:
    """pretrain -> symmetric shortform train -> partial k=4 longform train ->
    select-train; no summarize stage has a dev set, so nothing decodes."""

    why = ("the paper's two-step chain with no decoding: forward, backward, "
           "tape replay and Adam do the work")
    GEN, SF, LF, LF_DEV = 160, 128, 48, 16
    EPOCHS = dict(pretrain=2, shortform=2, longform=2, select=2)

    def setup(self, setup_dir, seed):
        return generate(setup_dir, seed, {
            "generic": (GENERIC, self.GEN, 0),
            "short": (SHORTFORM, self.SF, 0),
            "long": (LONGFORM, self.LF, self.LF_DEV)})

    def unit(self, udir, data, seed):
        e = self.EPOCHS
        pre = run_stage("pretrain", f"{udir}/cfg/pretrain.json", out_dir=f"{udir}/pre",
                        **train_fields(seed, data, "generic", GENERIC_LIMITS,
                                       e["pretrain"]))
        pre = os.path.relpath(pre, os.environ["STAGESUM_OUT"])
        sf = run_stage("train", f"{udir}/cfg/short.json", out_dir=f"{udir}/short",
                       scheme={"encoder": pre, "decoder": "symmetric"},
                       **train_fields(seed, data, "short", SHORT_LIMITS,
                                      e["shortform"]))
        sf = os.path.relpath(sf["checkpoint"], os.environ["STAGESUM_OUT"])
        run_stage("train", f"{udir}/cfg/long.json", out_dir=f"{udir}/long",
                  partial={"source": sf, "k": 4},
                  **train_fields(seed, data, "long", LONG_LIMITS, e["longform"]))
        run_stage("select_train", f"{udir}/cfg/select.json", out_dir=f"{udir}/select",
                  scheme={"encoder": pre},
                  **train_fields(seed, data, "long", LONG_LIMITS, e["select"],
                                 dev=True))


class DevDecode:
    """A summarizer and a selector trained in setup; the timed work is decode
    (greedy, beam-4, beam-4 with model selection) and eval on a shortform
    (24-token) and a longform (112-token) dev set."""

    why = ("decoding only (no backward, no optimizer) with a trained model on "
           "24- and 112-token sources, greedy and beam-4")
    SF, SF_DEV, LF_DEV = 160, 24, 24
    EPOCHS = dict(shortform=3, select=1)
    # Above the recipe's 3e-3: a few seconds of set-up must yield a model
    # that writes whole summaries and then EOS.
    LR = 1e-2
    DECODES = [("greedy", {"mode": "greedy"}, False),
               ("beam", {"mode": "beam", "beam_width": 4}, False),
               ("beam_sel", {"mode": "beam", "beam_width": 4}, True)]

    def setup(self, setup_dir, seed):
        data = generate(setup_dir, seed, {
            "short": (SHORTFORM, self.SF, self.SF_DEV),
            "long": (LONGFORM, 0, self.LF_DEV)})
        run_stage("train", f"{setup_dir}/cfg/short.json", out_dir=f"{setup_dir}/short",
                  **train_fields(seed, data, "short", SHORT_LIMITS,
                                 self.EPOCHS["shortform"], lr=self.LR))
        run_stage("select_train", f"{setup_dir}/cfg/select.json",
                  out_dir=f"{setup_dir}/select",
                  **train_fields(seed, data, "short", SHORT_LIMITS,
                                 self.EPOCHS["select"], dev=True, lr=self.LR))
        return setup_dir

    def unit(self, udir, setup_dir, seed):
        data = f"{setup_dir}/data"
        selector = {"mode": "model", "selector": f"{setup_dir}/select/selector.ckpt",
                    "threshold": f"{setup_dir}/select/threshold.txt"}
        for corpus, limits in (("short", SHORT_LIMITS), ("long", LONG_LIMITS)):
            dev = f"{data}/{corpus}.dev.tsv"
            for tag, decode, select in self.DECODES:
                out = f"{udir}/{corpus}-{tag}"
                decoded = run_stage(
                    "decode", f"{udir}/cfg/{corpus}-{tag}.json", out_dir=out,
                    model=MODEL, vocab=f"{data}/vocab.txt", corpus={"dev": dev},
                    limits=limits, checkpoint=f"{setup_dir}/short/checkpoint.ckpt",
                    decode=decode, selection=selector if select else {"mode": "none"})
                run_stage("eval", f"{udir}/cfg/{corpus}-{tag}-eval.json", out_dir=out,
                          eval={"references": dev,
                                "hypotheses": os.path.relpath(
                                    decoded, os.environ["STAGESUM_OUT"])})


class LayerwiseGrid:
    """pretrain -> symmetric shortform train with per-epoch dev ROUGE-L ->
    layer-wise grid over k=0..4 on longform (train with dev eval, save,
    load, decode, eval per cell)."""

    why = ("the acceptance recipe as a user runs it: training, per-epoch dev "
           "decoding, checkpoint surgery, save and load interleaved")
    GEN, SF, SF_DEV, LF, LF_DEV = 96, 128, 12, 32, 8
    EPOCHS = dict(pretrain=1, shortform=3, longform=1)
    # For pretrain and shortform, above the recipe's 3e-3: at this size the
    # recipe's rate leaves the shortform model so weak that every grid cell
    # can score the same ROUGE-L, and run_grid then fails in pearson_r
    # (zero variance).  The grid cells train at the recipe's rate.
    LR = 1e-2

    def setup(self, setup_dir, seed):
        return generate(setup_dir, seed, {
            "generic": (GENERIC, self.GEN, 0),
            "short": (SHORTFORM, self.SF, self.SF_DEV),
            "long": (LONGFORM, self.LF, self.LF_DEV)})

    def unit(self, udir, data, seed):
        e = self.EPOCHS
        pre = run_stage("pretrain", f"{udir}/cfg/pretrain.json", out_dir=f"{udir}/pre",
                        **train_fields(seed, data, "generic", GENERIC_LIMITS,
                                       e["pretrain"], lr=self.LR))
        pre = os.path.relpath(pre, os.environ["STAGESUM_OUT"])
        sf = run_stage("train", f"{udir}/cfg/short.json", out_dir=f"{udir}/short",
                       scheme={"encoder": pre, "decoder": "symmetric"},
                       **train_fields(seed, data, "short", SHORT_LIMITS,
                                      e["shortform"], dev=True, lr=self.LR))
        sf = os.path.relpath(sf["checkpoint"], os.environ["STAGESUM_OUT"])
        base = train_fields(seed, data, "long", LONG_LIMITS, e["longform"], dev=True)
        run_stage("grid", f"{udir}/cfg/grid.json", out_dir=f"{udir}/grid", seed=seed,
                  grid={"kind": "layerwise", "ks": [0, 1, 2, 3, 4], "source": sf,
                        "seeds": [seed], "base": base})


WORKLOADS = {"staged_train": StagedTrain(), "dev_decode": DevDecode(),
             "layerwise_grid": LayerwiseGrid()}
