"""CLI tests: subcommand wiring, reports, exit codes, tiny end-to-end runs."""

import json
import math

import numpy as np
import pytest

from stagesum import cli, harness, training
from stagesum import selection as sel
from stagesum.checkpoint import ParamStore, check_compatible, init_random
from stagesum.config import RunConfig
from stagesum.model import ModelConfig
from stagesum.tokenizer import Vocabulary, read_corpus, wordpiece_tokenize, write_corpus

MODEL = {"num_layers": 1, "hidden_size": 8, "num_heads": 2, "ffn_size": 16,
         "vocab_size": 96, "encoder_positions": 24, "decoder_positions": 8}


@pytest.fixture
def run_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STAGESUM_OUT", str(tmp_path))
    return tmp_path


def write_config(tmp_path, name, **fields):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(fields))
    return str(path)


def generate_corpora(run_env):
    cfg = write_config(run_env, "gen", out_dir="data", generate={
        "vocab_size": 96,
        "corpora": [
            {"name": "short", "kind": "shortform", "num_examples": 24,
             "input_range": [2, 3], "output_range": [1, 1],
             "alpha_abs": 0.5, "seed": 1, "dev_examples": 4},
        ],
    })
    assert cli.main(["generate", cfg]) == 0
    return run_env / "data"


class TestGenerate:
    def test_writes_corpora_vocab_and_sidecar(self, run_env, capsys):
        data = generate_corpora(run_env)
        assert (data / "vocab.txt").exists()
        assert (data / "short.train.tsv").exists()
        assert (data / "short.dev.tsv").exists()
        sidecar = json.loads((data / "short.spec.json").read_text())
        assert sidecar["alpha_abs"] == 0.5
        out = capsys.readouterr().out
        assert "short.train" in out

    def test_train_dev_split_sizes(self, run_env):
        data = generate_corpora(run_env)
        n_train = len((data / "short.train.tsv").read_text().splitlines())
        n_dev = len((data / "short.dev.tsv").read_text().splitlines())
        assert (n_train, n_dev) == (20, 4)

    @pytest.mark.parametrize("second, message", [
        ({"bogus_key": 1}, "bogus_key"),
        ({"dev_examples": 6}, "dev_examples 6"),
    ], ids=["unknown-key", "dev-exceeds-examples"])
    def test_rejected_entry_writes_nothing(self, run_env, capsys, second, message):
        entry = {"kind": "shortform", "num_examples": 4, "seed": 1}
        cfg = write_config(run_env, "gen", out_dir="data", generate={
            "vocab_size": 96,
            "corpora": [{**entry, "name": "a", "dev_examples": 2},
                        {**entry, "name": "b", **second}]})
        assert cli.main(["generate", cfg]) == 1
        assert message in capsys.readouterr().err
        assert not (run_env / "data").exists()


class TestEval:
    def test_identical_files_perfect_rouge(self, run_env, capsys):
        refs = [("the farmer visits the barn .", "farmer visits barn"),
                ("the pilot paints the tower .", "pilot paints tower")]
        write_corpus(refs, run_env / "refs.tsv")
        (run_env / "hyps.txt").write_text("farmer visits barn\npilot paints tower\n")
        cfg = write_config(run_env, "eval", out_dir="evalrun",
                           eval={"references": "refs.tsv",
                                 "hypotheses": "hyps.txt"})
        assert cli.main(["eval", cfg]) == 0
        out = capsys.readouterr().out
        assert "rougeL_f1\t1.0" in out
        assert (run_env / "evalrun" / "metrics.txt").exists()

    def test_abstraction_rate_reported(self, run_env, capsys):
        write_corpus([("a b c", "a d")], run_env / "refs.tsv")
        (run_env / "hyps.txt").write_text("a d\n")
        cfg = write_config(run_env, "eval", out_dir="evalrun",
                           eval={"references": "refs.tsv",
                                 "hypotheses": "hyps.txt"})
        assert cli.main(["eval", cfg]) == 0
        assert "abstraction_rate\t50.0" in capsys.readouterr().out


class TestPipeline:
    def test_train_then_decode_line_count(self, run_env, capsys):
        generate_corpora(run_env)
        train_cfg = write_config(
            run_env, "train", out_dir="trainrun", seed=0, model=MODEL,
            vocab="data/vocab.txt",
            corpus={"train": "data/short.train.tsv", "dev": "data/short.dev.tsv"},
            train={"lr": 1e-3, "dropout": 0.0, "batch_size": 8, "max_epochs": 1})
        assert cli.main(["train", train_cfg]) == 0
        out = capsys.readouterr().out
        assert "checkpoint\t" in out and "best_metric\t" in out
        assert (run_env / "trainrun" / "checkpoint.ckpt").exists()
        assert (run_env / "trainrun" / "surgery_report.txt").exists()

        decode_cfg = write_config(
            run_env, "decode", out_dir="decoderun", model=MODEL,
            vocab="data/vocab.txt",
            corpus={"dev": "data/short.dev.tsv"},
            checkpoint="trainrun/checkpoint.ckpt")
        assert cli.main(["decode", decode_cfg]) == 0
        decoded = run_env / "decoderun" / "decoded.txt"
        assert len(decoded.read_text().splitlines()) == 4

    def test_pretrain_writes_checkpoint(self, run_env, capsys):
        data_cfg = write_config(run_env, "gen", out_dir="data", generate={
            "vocab_size": 96,
            "corpora": [{"name": "gen", "kind": "generic", "num_examples": 12,
                         "input_range": [2, 3], "output_range": [0, 0],
                         "alpha_abs": 0.0, "seed": 0, "dev_examples": 2}],
        })
        assert cli.main(["generate", data_cfg]) == 0
        capsys.readouterr()
        cfg = write_config(
            run_env, "pre", out_dir="prerun", seed=0, model=MODEL,
            vocab="data/vocab.txt",
            corpus={"train": "data/gen.train.tsv", "dev": "data/gen.dev.tsv"},
            train={"lr": 1e-3, "dropout": 0.0, "batch_size": 4, "max_epochs": 1})
        assert cli.main(["pretrain", cfg]) == 0
        assert (run_env / "prerun" / "checkpoint.ckpt").exists()

    def test_select_train_from_pretrained_encoder(self, run_env, capsys):
        generate_corpora(run_env)
        common = dict(seed=0, model=MODEL, vocab="data/vocab.txt",
                      corpus={"train": "data/short.train.tsv",
                              "dev": "data/short.dev.tsv"})
        pre_cfg = write_config(
            run_env, "pre", out_dir="prerun", **common,
            train={"lr": 1e-3, "dropout": 0.0, "batch_size": 8, "max_epochs": 1})
        assert cli.main(["pretrain", pre_cfg]) == 0
        sel_cfg = write_config(
            run_env, "sel", out_dir="selrun", **common,
            scheme={"encoder": "prerun/checkpoint.ckpt"},
            train={"lr": 1e-3, "dropout": 0.0, "batch_size": 8, "max_epochs": 1})
        assert cli.main(["select-train", sel_cfg]) == 0
        selector = ParamStore.load(run_env / "selrun" / "selector.ckpt")
        check_compatible(selector, ModelConfig(**MODEL), "selector")
        threshold = float((run_env / "selrun" / "threshold.txt").read_text())
        assert 0.0 < threshold < 1.0
        report = dict(line.split("\t") for line in
                      (run_env / "selrun" / "selector_report.txt").read_text().splitlines())
        assert sorted(report) == ["auc_pr", "auc_roc", "coverage_f1",
                                  "coverage_precision", "coverage_recall"]
        assert all(0.0 <= float(v) <= 1.0 for v in report.values())
        # the initialization is recorded as train records it
        assert selector.provenance == ["denoise-stage", "select-stage"]
        surgery = dict(line.split("\t") for line in
                       (run_env / "selrun" / "surgery_report.txt").read_text().splitlines())
        assert sorted(surgery) == sorted(selector.names())
        for name, disposition in surgery.items():
            copied = name.startswith(("embedding.", "encoder."))
            assert disposition == (f"copied-from {name}" if copied else "randomized")

    def test_select_train_tokenizes_each_text_once(self, run_env, monkeypatch):
        """Labels come from the pieces encoding used: each split is tokenized
        once, one tokenizer call per distinct chunk of its 20 train or 4 dev
        pairs."""
        data = generate_corpora(run_env)
        calls = []

        def counted(text, vocab):
            calls.append(text)
            return wordpiece_tokenize(text, vocab)

        monkeypatch.setattr(harness, "wordpiece_tokenize", counted)
        cfg = write_config(run_env, "sel", out_dir="selrun", seed=0, model=MODEL,
                           vocab="data/vocab.txt",
                           corpus={"train": "data/short.train.tsv",
                                   "dev": "data/short.dev.tsv"},
                           train={"lr": 1e-3, "dropout": 0.0, "batch_size": 8,
                                  "max_epochs": 1})
        assert cli.main(["select-train", cfg]) == 0
        chunks = [sorted({chunk for pair in read_corpus(data / f"short.{split}.tsv")
                          for text in pair for chunk in text.lower().split()})
                  for split in ("train", "dev")]
        assert sorted(calls[:len(chunks[0])]) == chunks[0]
        assert sorted(calls[len(chunks[0]):]) == chunks[1]


class TestDataReport:
    """Each stage that encodes a corpus writes data_report.txt: per split it
    read, the pair count and the shares of truncated sources and targets."""

    TRAIN = ["dev_pairs\t3", "dev_source_truncated_rate\t0.6666666666666666",
             "dev_target_truncated_rate\t0.0", "train_pairs\t4",
             "train_source_truncated_rate\t0.5", "train_target_truncated_rate\t0.5"]

    @pytest.mark.parametrize("command", ["pretrain", "train", "select-train", "decode"])
    def test_truncation_rates(self, run_env, command):
        data = generate_corpora(run_env)
        words = [p for p in Vocabulary.load(data / "vocab.txt").pieces
                 if p.isalpha()][:8]
        # sources of 2, 4, 6, 8 (train) and 4, 6, 7 (dev) pieces against a
        # limit of 5; summaries of 1, 1, 3, 3 and 2, 2, 2 pieces plus EOS
        # against a limit of 3
        write_corpus([(" ".join(words[:n]), " ".join(words[:k]))
                      for n, k in ((2, 1), (4, 1), (6, 3), (8, 3))], run_env / "t.tsv")
        write_corpus([(" ".join(words[:n]), " ".join(words[:2])) for n in (4, 6, 7)],
                     run_env / "d.tsv")
        init_random(ModelConfig(**MODEL), 0).save(str(run_env / "random.ckpt"))
        cfg = write_config(run_env, "cfg", out_dir="r", seed=0, model=MODEL,
                           vocab="data/vocab.txt", corpus={"train": "t.tsv", "dev": "d.tsv"},
                           limits={"source": 5, "target": 3}, checkpoint="random.ckpt",
                           train={"lr": 1e-3, "dropout": 0.0, "batch_size": 4,
                                  "max_epochs": 1})
        assert cli.main([command, cfg]) == 0
        report = (run_env / "r" / "data_report.txt").read_text().splitlines()
        # decode reads the dev split only
        assert report == (self.TRAIN[:3] if command == "decode" else self.TRAIN)


class TestTimings:
    """Training stages write per-epoch wall-clock timings to timings.json
    and keep them out of the reproducible train_report.txt."""

    def test_timings_beside_report(self, run_env, capsys):
        generate_corpora(run_env)
        common = dict(seed=0, model=MODEL, vocab="data/vocab.txt",
                      corpus={"train": "data/short.train.tsv",
                              "dev": "data/short.dev.tsv"},
                      train={"lr": 1e-3, "dropout": 0.1, "batch_size": 8,
                             "max_epochs": 2})
        for command, out in [("pretrain", "pre"), ("train", "train-0"),
                             ("select-train", "sel"), ("train", "train-1")]:
            assert cli.main([command, write_config(run_env, out, out_dir=out,
                                                   **common)]) == 0
            timings = json.loads((run_env / out / "timings.json").read_text())
            assert timings["initial_dev_eval_s"] > 0
            assert [t["epoch"] for t in timings["epochs"]] == [1, 2]
            for record in timings["epochs"]:
                assert sorted(record) == ["dev_eval_s", "epoch", "mean_grad_norm",
                                          "target_tokens_per_s", "train_examples_per_s",
                                          "train_s"]
                assert min(record["train_s"], record["dev_eval_s"],
                           record["train_examples_per_s"], record["target_tokens_per_s"],
                           record["mean_grad_norm"]) > 0
                assert math.isfinite(record["mean_grad_norm"])
            if command != "pretrain":
                # every epoch of a (non-masking) stage scores the same targets,
                # at least one per example
                per_example = [t["target_tokens_per_s"] / t["train_examples_per_s"]
                               for t in timings["epochs"]]
                assert per_example[0] >= 1
                assert per_example[1] == pytest.approx(per_example[0], rel=1e-9)
            report = (run_env / out / "train_report.txt").read_text().splitlines()
            assert [sorted(k.split("=")[0] for k in line.split()) for line in report] == (
                [["dev_metric", "epoch", "train_loss"]] * 2 + [["best_epoch", "best_metric"]])
        # a second run of the same stage writes the same report and checkpoint
        for name in ("train_report.txt", "checkpoint.ckpt"):
            assert ((run_env / "train-0" / name).read_bytes()
                    == (run_env / "train-1" / name).read_bytes())


class TestDecodeModes:
    """`decode` with a beam and with model selection writes what
    `training.decode_corpus` decodes from the same checkpoint and inputs."""

    @pytest.mark.parametrize("selection", ["none", "model"])
    def test_beam4_matches_decode_corpus(self, run_env, capsys, selection):
        data = generate_corpora(run_env)
        common = dict(seed=0, model=MODEL, vocab="data/vocab.txt",
                      corpus={"train": "data/short.train.tsv",
                              "dev": "data/short.dev.tsv"},
                      train={"lr": 3e-3, "dropout": 0.0, "batch_size": 4,
                             "max_epochs": 4})
        assert cli.main(["train", write_config(run_env, "train", out_dir="trainrun",
                                               **common)]) == 0
        selector = {"mode": "none"}
        if selection == "model":
            assert cli.main(["select-train", write_config(
                run_env, "sel", out_dir="selrun", **common)]) == 0
            selector = {"mode": "model", "selector": "selrun/selector.ckpt",
                        "threshold": "selrun/threshold.txt"}
        decode_cfg = write_config(
            run_env, "decode", out_dir="decoderun", model=MODEL,
            vocab="data/vocab.txt", corpus={"dev": "data/short.dev.tsv"},
            checkpoint="trainrun/checkpoint.ckpt",
            decode={"mode": "beam", "beam_width": 4}, selection=selector)
        assert cli.main(["decode", decode_cfg]) == 0
        lines = (run_env / "decoderun" / "decoded.txt").read_text().splitlines()

        mcfg = ModelConfig(**MODEL)
        vocab = Vocabulary.load(data / "vocab.txt")
        pieces = harness.tokenize_corpus(read_corpus(data / "short.dev.tsv"), vocab)
        examples = harness.encode_corpus(pieces, vocab, mcfg.encoder_positions,
                                         mcfg.decoder_positions)
        selected = None
        if selection == "model":
            threshold = float((run_env / "selrun" / "threshold.txt").read_text())
            probs = sel.selector_probs(
                ParamStore.load(run_env / "selrun" / "selector.ckpt"), mcfg, examples)
            selected = sel.selection_mask([p > threshold for p in probs],
                                          np.stack([ex.source_pad_mask for ex in examples]))
        store = ParamStore.load(run_env / "trainrun" / "checkpoint.ckpt")
        expected = training.decode_corpus(store, mcfg, examples, vocab, selected,
                                          mode="beam", beam_width=4)
        assert len(lines) == 4
        assert lines == expected


class TestGrid:
    def test_layerwise_grid_with_equal_scores(self, run_env, monkeypatch):
        def constant_cell(base, overrides):
            return {"rouge1_f1": 0.5, "rouge2_f1": 0.25, "rougeL_f1": 0.5,
                    "abstraction_rate": 0.0, "best_epoch": 1}

        monkeypatch.setattr(harness, "_grid_run_one", constant_cell)
        cfg = RunConfig(out_dir="grid", grid={
            "kind": "layerwise", "ks": [0, 1, 2], "source": "unused.ckpt",
            "seeds": [0, 1], "base": {}})
        result = harness.run_grid(cfg)
        assert "pearson_r" not in result
        report = (run_env / "grid" / "grid_report.txt").read_text()
        assert "pearson_r\tundefined (zero variance)\n" in report
        assert report.count("rougeL_f1=0.5") == 3
        points = (run_env / "grid" / "layerwise_points.txt").read_text()
        assert len(points.splitlines()) == 6

    @pytest.mark.parametrize("kind", ["schemes", "layerwise"])
    def test_grid_under_relative_output_root(self, tmp_path, monkeypatch, capsys, kind):
        """With a relative STAGESUM_OUT, each cell decodes the checkpoint its
        training wrote and scores a row."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("STAGESUM_OUT", "out")
        (tmp_path / "out").mkdir()
        generate_corpora(tmp_path / "out")
        capsys.readouterr()
        base = dict(model=MODEL, vocab="data/vocab.txt",
                    corpus={"train": "data/short.train.tsv", "dev": "data/short.dev.tsv"},
                    train={"lr": 1e-3, "dropout": 0.0, "batch_size": 8, "max_epochs": 1})
        if kind == "schemes":
            grid = {"kind": "schemes", "runs": [{"name": "random"}], "base": base}
        else:
            init_random(ModelConfig(**MODEL), 0).save("out/random.ckpt")
            grid = {"kind": "layerwise", "ks": [0, 1], "source": "random.ckpt",
                    "base": base}
        cfg = write_config(tmp_path, "grid", out_dir="grid", grid=grid)
        assert cli.main(["grid", cfg]) == 0
        report = (tmp_path / "out" / "grid" / "grid_report.txt").read_text()
        assert "absent" not in report
        assert report.count("rougeL_f1=") == (1 if kind == "schemes" else 2)

    @pytest.mark.parametrize("kind, missing", [
        ("schemes", "missing-encoder.ckpt"),
        ("schemes", "data/missing.dev.tsv"),
        ("layerwise", "missing-source.ckpt"),
    ])
    def test_missing_input_fails_the_grid(self, run_env, capsys, kind, missing):
        """A cell whose corpus or checkpoint is missing fails the grid with
        an error naming the path, and no report is written."""
        generate_corpora(run_env)
        capsys.readouterr()
        base = dict(model=MODEL, vocab="data/vocab.txt",
                    corpus={"train": "data/short.train.tsv", "dev": "data/short.dev.tsv"},
                    train={"lr": 1e-3, "dropout": 0.0, "batch_size": 8, "max_epochs": 1})
        if kind == "layerwise":
            grid = {"kind": "layerwise", "ks": [0], "source": missing, "base": base}
        elif missing.endswith(".ckpt"):
            grid = {"kind": "schemes", "base": base,
                    "runs": [{"name": "bert", "scheme": {"encoder": missing}}]}
        else:
            base["corpus"] = dict(base["corpus"], dev=missing)
            grid = {"kind": "schemes", "base": base, "runs": [{"name": "random"}]}
        cfg = write_config(run_env, "grid", out_dir="grid", grid=grid)
        assert cli.main(["grid", cfg]) == 1
        assert missing in capsys.readouterr().err
        assert not (run_env / "grid" / "grid_report.txt").exists()


class TestDiagnostics:
    def test_missing_config_file(self, run_env, capsys):
        assert cli.main(["eval", str(run_env / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key(self, run_env, capsys):
        cfg = write_config(run_env, "bad", bogus_key=1)
        assert cli.main(["train", cfg]) == 1
        assert "bogus_key" in capsys.readouterr().err
        # an unknown key inside "model" or "train" is rejected too, before a
        # run directory exists; the dropout rate is set only in
        # train.dropout, and the subcommand picks the stage kind
        generate_corpora(run_env)
        capsys.readouterr()
        for section, key, value in [("train", "stage_name", "x"),
                                    ("model", "dropout_rate", 0.5),
                                    ("train", "stage", "denoise"),
                                    ("train", "eval_every", 1)]:
            fields = {"model": dict(MODEL), "train": {"max_epochs": 1}}
            fields[section][key] = value
            cfg = write_config(run_env, "bad-train", out_dir="r",
                               vocab="data/vocab.txt",
                               corpus={"train": "data/short.train.tsv"}, **fields)
            assert cli.main(["train", cfg]) == 1, key
            assert key in capsys.readouterr().err
            assert not (run_env / "r").exists(), key

    @pytest.mark.parametrize("section, key", [
        ("decode", "beamwidth"), ("scheme", "decodr"), ("limits", "src"),
        ("corpus", "test"), ("partial", "layers"), ("selection", "thresh"),
        ("generate", "corpus"), ("grid", "seed"), ("eval", "refs")])
    def test_unknown_section_key(self, run_env, capsys, section, key):
        """A key inside a section that the harness does not read is rejected
        by name before a run directory exists; a misspelt decode.beam_width,
        say, would otherwise decode at the default width."""
        generate_corpora(run_env)
        capsys.readouterr()
        fields = dict(model=MODEL, vocab="data/vocab.txt",
                      corpus={"train": "data/short.train.tsv"}, train={"max_epochs": 1})
        fields[section] = {**fields.get(section, {}), key: 1}
        cfg = write_config(run_env, "bad-section", out_dir="r", **fields)
        assert cli.main(["train", cfg]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (run_env / "r").exists()

    def test_unknown_section_key_in_grid_cell(self, run_env, capsys):
        """A grid cell is a run config too: a misspelt key in its overrides
        fails the grid before the cell trains."""
        generate_corpora(run_env)
        capsys.readouterr()
        base = dict(model=MODEL, vocab="data/vocab.txt",
                    corpus={"train": "data/short.train.tsv", "dev": "data/short.dev.tsv"},
                    train={"max_epochs": 1})
        cfg = write_config(run_env, "grid", out_dir="grid", grid={
            "kind": "schemes", "base": base,
            "runs": [{"name": "wide", "decode": {"mode": "beam", "beamwidth": 8}}]})
        assert cli.main(["grid", cfg]) == 1
        assert "decode.beamwidth" in capsys.readouterr().err
        assert not (run_env / "grid").exists()

    def test_empty_train_corpus(self, run_env, capsys):
        generate_corpora(run_env)
        (run_env / "empty.tsv").write_text("")
        capsys.readouterr()
        cfg = write_config(run_env, "train", out_dir="trainrun", model=MODEL,
                           vocab="data/vocab.txt", corpus={"train": "empty.tsv"},
                           train={"max_epochs": 1})
        assert cli.main(["train", cfg]) == 1
        assert "training corpus is empty" in capsys.readouterr().err
        assert not (run_env / "trainrun").exists()

    @pytest.mark.parametrize("command, split", [
        ("train", "dev"), ("select-train", "dev"), ("select-train", "train"),
        ("decode", "dev")])
    def test_empty_corpus_split(self, run_env, capsys, command, split):
        """A configured split whose file holds no pairs (blank lines only)
        fails the stage, naming the key and the file, before a run
        directory exists."""
        generate_corpora(run_env)
        init_random(ModelConfig(**MODEL), 0).save(str(run_env / "random.ckpt"))
        (run_env / "empty.tsv").write_text("\n\n")
        capsys.readouterr()
        corpus = {"train": "data/short.train.tsv", "dev": "data/short.dev.tsv",
                  split: "empty.tsv"}
        cfg = write_config(run_env, "cfg", out_dir="r", model=MODEL,
                           vocab="data/vocab.txt", corpus=corpus,
                           checkpoint="random.ckpt", train={"max_epochs": 1})
        assert cli.main([command, cfg]) == 1
        assert f"corpus.{split} {run_env / 'empty.tsv'} holds no pairs" in (
            capsys.readouterr().err)
        assert not (run_env / "r").exists()

    @pytest.mark.parametrize("command, split", [
        ("train", "train"), ("train", "dev"), ("select-train", "train"),
        ("select-train", "dev")])
    def test_empty_summary_rejected(self, run_env, capsys, command, split):
        """A stage that trains on summaries names the file and line of an
        empty summary before it trains or makes its run directory."""
        data = generate_corpora(run_env)
        pairs = read_corpus(data / f"short.{split}.tsv")
        pairs[2] = (pairs[2][0], "")
        write_corpus(pairs, run_env / "damaged.tsv")
        capsys.readouterr()
        corpus = {"train": "data/short.train.tsv", "dev": "data/short.dev.tsv",
                  split: "damaged.tsv"}
        cfg = write_config(run_env, "cfg", out_dir="r", model=MODEL,
                           vocab="data/vocab.txt", corpus=corpus, train={"max_epochs": 1})
        assert cli.main([command, cfg]) == 1
        assert (f"{run_env / 'damaged.tsv'}: line 3: empty summary"
                in capsys.readouterr().err)
        assert not (run_env / "r").exists()

    def test_damaged_record_named(self, run_env, capsys):
        """A corpus line without a TAB fails the stage by file and line."""
        generate_corpora(run_env)
        lines = (run_env / "data" / "short.train.tsv").read_text().splitlines()
        lines[4] = lines[4].replace("\t", " ")
        (run_env / "damaged.tsv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        cfg = write_config(run_env, "cfg", out_dir="r", model=MODEL,
                           vocab="data/vocab.txt", corpus={"train": "damaged.tsv"},
                           train={"max_epochs": 1})
        assert cli.main(["pretrain", cfg]) == 1
        assert (f"{run_env / 'damaged.tsv'}: line 5: no TAB between document and summary"
                in capsys.readouterr().err)
        assert not (run_env / "r").exists()

    @pytest.mark.parametrize("command", ["select-train", "decode"])
    def test_missing_dev_split(self, run_env, capsys, command):
        generate_corpora(run_env)
        init_random(ModelConfig(**MODEL), 0).save(str(run_env / "random.ckpt"))
        capsys.readouterr()
        cfg = write_config(run_env, "cfg", out_dir="r", model=MODEL,
                           vocab="data/vocab.txt",
                           corpus={"train": "data/short.train.tsv"},
                           checkpoint="random.ckpt", train={"max_epochs": 1})
        assert cli.main([command, cfg]) == 1
        assert "corpus.dev" in capsys.readouterr().err
        assert not (run_env / "r").exists()

    @pytest.mark.parametrize("train_text", [None, "", "\n"],
                             ids=["missing", "empty", "blank"])
    def test_decode_ignores_the_train_split(self, run_env, capsys, train_text):
        """decode reads only corpus.dev: a train file that is missing or
        holds no pairs does not stop it."""
        generate_corpora(run_env)
        init_random(ModelConfig(**MODEL), 0).save(str(run_env / "random.ckpt"))
        if train_text is not None:
            (run_env / "train.tsv").write_text(train_text)
        cfg = write_config(run_env, "decode", out_dir="decoderun", model=MODEL,
                           vocab="data/vocab.txt",
                           corpus={"train": "train.tsv", "dev": "data/short.dev.tsv"},
                           checkpoint="random.ckpt")
        assert cli.main(["decode", cfg]) == 0
        assert len((run_env / "decoderun" / "decoded.txt").read_text().splitlines()) == 4

    def test_decode_rejects_another_head_count(self, run_env, capsys):
        """A checkpoint trained with 4 heads has the parameter shapes of a
        2-head model; its fingerprint names the difference."""
        generate_corpora(run_env)
        init_random(ModelConfig(**{**MODEL, "num_heads": 4}), 0).save(
            str(run_env / "heads4.ckpt"))
        capsys.readouterr()
        cfg = write_config(run_env, "decode", out_dir="decoderun", model=MODEL,
                           vocab="data/vocab.txt", corpus={"dev": "data/short.dev.tsv"},
                           checkpoint="heads4.ckpt")
        assert cli.main(["decode", cfg]) == 1
        err = capsys.readouterr().err
        assert "checkpoint incompatible with model config" in err
        assert "fingerprint num_heads: checkpoint 4 vs model 2" in err
        assert not (run_env / "decoderun").exists()

    def test_unknown_decode_mode(self, run_env, capsys):
        generate_corpora(run_env)
        init_random(ModelConfig(**MODEL), 0).save(str(run_env / "random.ckpt"))
        capsys.readouterr()
        cfg = write_config(run_env, "decode", out_dir="decoderun", model=MODEL,
                           vocab="data/vocab.txt", corpus={"dev": "data/short.dev.tsv"},
                           checkpoint="random.ckpt", decode={"mode": "beem"})
        assert cli.main(["decode", cfg]) == 1
        assert "'beem'" in capsys.readouterr().err
        assert not (run_env / "decoderun").exists()

    @pytest.mark.parametrize("arch, layers, named", [
        ("selector", 2, "unexpected encoder.layer.1."),
        ("seq2seq", 1, "missing selector.weight"),
    ], ids=["deeper-selector", "seq2seq-as-selector"])
    def test_incompatible_selector(self, run_env, capsys, arch, layers, named):
        generate_corpora(run_env)
        init_random(ModelConfig(**MODEL), 0).save(str(run_env / "random.ckpt"))
        init_random(ModelConfig(**{**MODEL, "num_layers": layers}), 0, arch=arch).save(
            str(run_env / "selector.ckpt"))
        capsys.readouterr()
        cfg = write_config(run_env, "decode", out_dir="decoderun", model=MODEL,
                           vocab="data/vocab.txt", corpus={"dev": "data/short.dev.tsv"},
                           checkpoint="random.ckpt",
                           selection={"mode": "model", "selector": "selector.ckpt",
                                      "threshold": 0.5})
        assert cli.main(["decode", cfg]) == 1
        err = capsys.readouterr().err
        assert "checkpoint incompatible with model config" in err and named in err
        assert not (run_env / "decoderun").exists()

    @pytest.mark.parametrize("threshold, text", [
        ("thr.txt", ""), ("thr.txt", "high\n"), ("thr.txt", "nan\n"),
        ("thr.txt", "inf\n"), ("thr.txt", "0.2 0.4\n"), (None, None),
        (float("nan"), None), (float("-inf"), None), (True, None), ([0.5], None),
    ], ids=["empty-file", "text-file", "nan-file", "inf-file", "two-values-file",
            "missing", "nan", "-inf", "bool", "list"])
    def test_invalid_decode_threshold(self, run_env, capsys, threshold, text):
        """A selection threshold that is not one finite number is rejected,
        naming the file that holds it or the config key."""
        generate_corpora(run_env)
        init_random(ModelConfig(**MODEL), 0).save(str(run_env / "random.ckpt"))
        init_random(ModelConfig(**MODEL), 0, arch="selector").save(
            str(run_env / "selector.ckpt"))
        if text is not None:
            (run_env / threshold).write_text(text)
        selection = {"mode": "model", "selector": "selector.ckpt"}
        if threshold is not None:
            selection["threshold"] = threshold
        capsys.readouterr()
        cfg = write_config(run_env, "decode", out_dir="decoderun", model=MODEL,
                           vocab="data/vocab.txt", corpus={"dev": "data/short.dev.tsv"},
                           checkpoint="random.ckpt", selection=selection)
        assert cli.main(["decode", cfg]) == 1
        named = str(run_env / "thr.txt") if text is not None else "selection.threshold"
        err = capsys.readouterr().err
        assert f"{named}: threshold" in err and "is not a finite number" in err
        assert not (run_env / "decoderun").exists()

    def test_incompatible_partial_source(self, run_env, capsys):
        generate_corpora(run_env)
        init_random(ModelConfig(**{**MODEL, "hidden_size": 16}), 0).save(
            str(run_env / "wide.ckpt"))
        capsys.readouterr()
        cfg = write_config(run_env, "train", out_dir="trainrun", model=MODEL,
                           vocab="data/vocab.txt",
                           corpus={"train": "data/short.train.tsv"},
                           partial={"source": "wide.ckpt", "k": 1},
                           train={"max_epochs": 1})
        assert cli.main(["train", cfg]) == 1
        assert "error" in capsys.readouterr().err
        assert not (run_env / "trainrun").exists()

    def test_surgery_error_printed_unquoted(self, run_env, capsys):
        generate_corpora(run_env)
        capsys.readouterr()
        cfg = write_config(run_env, "train", out_dir="r", model=MODEL,
                           vocab="data/vocab.txt",
                           corpus={"train": "data/short.train.tsv"},
                           scheme={"decoder": "symmetric"}, train={"max_epochs": 1})
        assert cli.main(["train", cfg]) == 1
        assert capsys.readouterr().err == (
            "stagesum train: error: symmetric decoder initialization requires an "
            "encoder checkpoint\n")

    @pytest.mark.parametrize("command,fields,named", [
        ("train", dict(partial={"source": "random.ckpt", "k": 1},
                       scheme={"encoder": "random.ckpt"}), "partial and scheme"),
        ("select-train", dict(partial={"source": "random.ckpt", "k": 1}), "partial"),
        ("select-train", dict(scheme={"encoder": "random.ckpt",
                                      "decoder": "symmetric"}), "scheme.decoder"),
        ("pretrain", dict(partial={"source": "random.ckpt", "k": 1}), "partial"),
        ("pretrain", dict(scheme={"encoder": "random.ckpt"}), "scheme"),
    ], ids=["train-both", "select-partial", "select-decoder", "pretrain-partial",
            "pretrain-scheme"])
    def test_ignored_init_keys_rejected(self, run_env, capsys, command, fields, named):
        generate_corpora(run_env)
        init_random(ModelConfig(**MODEL), 0).save(str(run_env / "random.ckpt"))
        capsys.readouterr()
        cfg = write_config(run_env, "cfg", out_dir="r", model=MODEL,
                           vocab="data/vocab.txt",
                           corpus={"train": "data/short.train.tsv",
                                   "dev": "data/short.dev.tsv"},
                           train={"max_epochs": 1}, **fields)
        assert cli.main([command, cfg]) == 1
        assert f"{command} cannot take {named}" in capsys.readouterr().err
        assert not (run_env / "r").exists()

    def test_missing_corpus_file(self, run_env, capsys):
        cfg = write_config(run_env, "train", out_dir="r", model=MODEL,
                           vocab="missing-vocab.txt",
                           corpus={"train": "missing.tsv"})
        assert cli.main(["train", cfg]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate", "x.json"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            cli.main([])
