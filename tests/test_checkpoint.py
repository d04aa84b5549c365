"""Checkpoint store, container format, and initialization-surgery tests."""

import json
import struct

import numpy as np
import pytest

from stagesum import model as M
from stagesum import training
from stagesum.autodiff import Tensor
from stagesum.checkpoint import (ALWAYS_RANDOM, MAGIC, CheckpointError,
                                 IncompatibilityError, InitScheme, ParamStore,
                                 SurgeryError, apply_partial, apply_scheme,
                                 check_compatible, format_surgery_report,
                                 init_random, loadable_slots)

from test_model import example_for, small_config


def cfg(**kw):
    base = dict(num_layers=2, hidden_size=16, num_heads=2, ffn_size=32,
                vocab_size=24, encoder_positions=12, decoder_positions=8)
    base.update(kw)
    return M.ModelConfig(**base)


def all_random(config, seed, arch):
    """A store whose every tensor, biases and gains too, holds distinct
    random values, so a copy from the wrong source name shows."""
    store = init_random(config, seed, arch=arch)
    rng = np.random.default_rng(seed)
    for name in store.names():
        store[name].data[...] = rng.normal(size=store[name].data.shape)
    return store


def mirror_source(name):
    """Expected symmetric source of a decoder parameter: the same leaf of
    the same-index encoder layer, self-attention standing in for cross."""
    _, layer, index, sub, *leaf = name.split(".")
    if sub.startswith("cross_attn"):
        sub = "self_attn" + sub[len("cross_attn"):]
    return ".".join(["encoder", layer, index, sub, *leaf])


class TestContainer:
    def test_round_trip_bitwise(self, tmp_path):
        store = init_random(cfg(), 3)
        store.provenance = ["stageA"]
        path = tmp_path / "m.ckpt"
        store.save(path)
        loaded = ParamStore.load(path)
        assert loaded.names() == store.names()
        for n in store.names():
            assert np.array_equal(loaded[n].data, store[n].data)
        assert loaded.provenance == ["stageA"]
        assert loaded.fingerprint == store.fingerprint

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 32)
        with pytest.raises(CheckpointError, match="not a stagesum checkpoint"):
            ParamStore.load(path)

    def saved_bytes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        init_random(cfg(), 3).save(path)
        return path, path.read_bytes()

    def test_short_header_rejected(self, tmp_path):
        path, blob = self.saved_bytes(tmp_path)
        for cut in (len(MAGIC) + 4, len(MAGIC) + 8 + 10):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                ParamStore.load(path)

    def test_unreadable_header_rejected(self, tmp_path):
        path, blob = self.saved_bytes(tmp_path)
        at = len(MAGIC) + 8
        path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
        with pytest.raises(CheckpointError, match="unreadable header"):
            ParamStore.load(path)

    def test_short_payload_rejected(self, tmp_path):
        path, blob = self.saved_bytes(tmp_path)
        for cut in (len(blob) - 8, len(blob) - 3):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="truncated payload"):
                ParamStore.load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, blob = self.saved_bytes(tmp_path)
        path.write_bytes(blob + b"\0")
        with pytest.raises(CheckpointError, match="1 trailing bytes"):
            ParamStore.load(path)

    def test_flipped_payload_byte_rejected(self, tmp_path):
        path, blob = self.saved_bytes(tmp_path)
        for at in (len(blob) - 8 * 40, len(blob) - 1):
            path.write_bytes(blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:])
            with pytest.raises(CheckpointError, match=f"{path.name}: payload .* sha256"):
                ParamStore.load(path)

    def test_header_without_checksum_rejected(self, tmp_path):
        """`save` always writes payload_sha256, so a header without it is
        damaged, even when the payload is intact."""
        path, blob = self.saved_bytes(tmp_path)
        (hlen,) = struct.unpack_from("<Q", blob, len(MAGIC))
        at = len(MAGIC) + 8
        header = json.loads(blob[at:at + hlen])
        del header["payload_sha256"]
        old = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(MAGIC + struct.pack("<Q", len(old)) + old + blob[at + hlen:])
        with pytest.raises(CheckpointError,
                           match=f"{path.name}: header has no payload_sha256"):
            ParamStore.load(path)

    def test_save_load_save_byte_identical(self, tmp_path):
        path, blob = self.saved_bytes(tmp_path)
        again = tmp_path / "again.ckpt"
        ParamStore.load(path).save(again)
        assert again.read_bytes() == blob
        # the save replaced the file whole and left no temporary behind
        ParamStore.load(path).save(path)
        assert path.read_bytes() == blob
        assert sorted(p.name for p in tmp_path.iterdir()) == ["again.ckpt", "m.ckpt"]

    def test_dimension_mismatch_reported(self, tmp_path):
        small = init_random(cfg(hidden_size=16), 0)
        with pytest.raises(IncompatibilityError, match="embedding.word"):
            check_compatible(small, cfg(hidden_size=32), "seq2seq")

    def test_check_compatible_passes(self):
        check_compatible(init_random(cfg(), 0), cfg(), "seq2seq")

    def test_fingerprint_mismatch_reported(self, tmp_path):
        """Head count changes no parameter shape, so only the fingerprint
        tells a 4-head checkpoint from a 2-head model; every differing
        field is named."""
        path = tmp_path / "m.ckpt"
        init_random(cfg(num_heads=4), 0).save(path)
        store = ParamStore.load(path)
        assert dict(store.layout) == dict(init_random(cfg(), 0).layout)
        with pytest.raises(IncompatibilityError) as err:
            check_compatible(store, cfg(), "seq2seq")
        assert str(err.value).splitlines()[1:] == [
            "  fingerprint num_heads: checkpoint 4 vs model 2"]
        store = ParamStore(store.params, {**store.fingerprint, "arch": "other",
                                          "extra": 1})
        with pytest.raises(IncompatibilityError) as err:
            check_compatible(store, cfg(num_heads=4), "seq2seq")
        assert str(err.value).splitlines()[1:] == [
            "  fingerprint arch: checkpoint 'other' vs model 'seq2seq'",
            "  fingerprint extra: checkpoint 1 vs model None"]

    def test_extra_parameter_reported(self):
        store = init_random(cfg(), 0)
        store = ParamStore({**store.params, "rogue.weight": store["gate.weight"]},
                           store.fingerprint)
        with pytest.raises(IncompatibilityError, match="rogue"):
            check_compatible(store, cfg(), "seq2seq")

    def test_params_read_only(self):
        store = init_random(cfg(), 0)
        with pytest.raises(TypeError):
            store.params["rogue.weight"] = store["gate.weight"]
        with pytest.raises(TypeError):
            del store.params["gate.weight"]

    @pytest.mark.parametrize("damage, message", [
        (lambda h: [h], "header lacks"),
        (lambda h: {k: v for k, v in h.items() if k != "tensors"}, "header lacks"),
        (lambda h: {k: v for k, v in h.items() if k != "fingerprint"},
         "header lacks"),
        (lambda h: {k: v for k, v in h.items() if k != "provenance"},
         "header lacks"),
        (lambda h: {**h, "tensors": {"a": [2]}}, "header lacks"),
        (lambda h: {**h, "tensors": [{"shape": [2]}] + h["tensors"][1:]}, "lacks a name"),
        (lambda h: {**h, "tensors": [{**h["tensors"][0], "shape": [-1, 3]}]
                    + h["tensors"][1:]}, "not a list of non-negative ints"),
        (lambda h: {**h, "tensors": [{**h["tensors"][0], "shape": 3}]
                    + h["tensors"][1:]}, "not a list of non-negative ints"),
        (lambda h: {**h, "tensors": [{**h["tensors"][0], "shape": [2.0]}]
                    + h["tensors"][1:]}, "not a list of non-negative ints"),
        (lambda h: {**h, "tensors": h["tensors"][:1] + h["tensors"][:1]
                    + h["tensors"][1:]}, "repeats one"),
        (lambda h: {**h, "fingerprint": "ab"}, "is not an object"),
        (lambda h: {**h, "fingerprint": None}, "is not an object"),
        (lambda h: {**h, "fingerprint": ["ab"]}, "is not an object"),
        (lambda h: {**h, "provenance": "stage"}, "is not a list of strings"),
        (lambda h: {**h, "provenance": None}, "is not a list of strings"),
        (lambda h: {**h, "provenance": ["stage", 1]}, "is not a list of strings"),
    ], ids=["list", "no-tensors", "no-fingerprint", "no-provenance", "tensors-not-list",
            "no-name", "negative-extent", "shape-not-list", "float-extent",
            "repeated-name", "fingerprint-string", "fingerprint-null", "fingerprint-list",
            "provenance-string", "provenance-null", "provenance-not-strings"])
    def test_malformed_header_rejected(self, tmp_path, damage, message):
        """A header with the payload's sha256 intact but a damaged tensor
        table, key set, fingerprint or provenance fails by name; a repeated
        name would otherwise load and drop a tensor, and a fingerprint of
        ["ab"] would load as {"a": "b"}."""
        path = tmp_path / "m.ckpt"
        store = ParamStore({"a": Tensor(np.zeros(2)), "b": Tensor(np.ones((3, 2)))},
                           {"arch": "x"}, ["stage"])
        store.save(path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", blob, len(MAGIC))
        at = len(MAGIC) + 8
        header = json.dumps(damage(json.loads(blob[at:at + hlen]))).encode("utf-8")
        path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header
                         + blob[at + hlen:])
        with pytest.raises(CheckpointError, match=f"{path.name}: .*{message}"):
            ParamStore.load(path)


class TestInitRandom:
    def test_deterministic(self):
        a = init_random(cfg(), 7)
        b = init_random(cfg(), 7)
        for n in a.names():
            assert np.array_equal(a[n].data, b[n].data)

    def test_biases_zero_gains_one(self):
        store = init_random(cfg(), 0)
        assert (store["output.bias"].data == 0).all()
        assert (store["encoder.layer.0.self_attn.q.bias"].data == 0).all()
        assert (store["encoder.layer.0.self_attn_norm.gain"].data == 1).all()

    def test_truncated_normal_stats(self):
        store = init_random(cfg(vocab_size=64, hidden_size=16), 0)
        samples = np.concatenate([store[n].data.ravel() for n in store.names()
                                  if n.endswith("weight")])
        assert samples.size >= 10_000
        assert 0.015 <= samples.std() <= 0.025
        assert np.abs(samples).max() <= 0.04 + 1e-12  # two-sigma truncation


class TestApplyScheme:
    def test_random_random_equals_init_random(self):
        store, report = apply_scheme(InitScheme(), cfg(), 5)
        fresh = init_random(cfg(), 5)
        for n in store.names():
            assert np.array_equal(store[n].data, fresh[n].data)
        assert all(v == "randomized" for v in report.values())

    @pytest.fixture
    def encoder_ckpt(self, tmp_path):
        config = cfg()
        src = init_random(config, 99, arch="mlm_encoder")
        src.provenance = ["denoise-stage"]
        path = tmp_path / "enc.ckpt"
        src.save(path)
        return config, src, str(path)

    def test_bert_random(self, encoder_ckpt):
        config, src, path = encoder_ckpt
        store, report = apply_scheme(InitScheme(encoder=path), config, 5)
        fresh = init_random(config, 5)
        # encoder side bitwise from the source
        assert np.array_equal(store["encoder.layer.1.ffn.in.weight"].data,
                              src["encoder.layer.1.ffn.in.weight"].data)
        assert np.array_equal(store["embedding.word"].data,
                              src["embedding.word"].data)
        # decoder side equals fresh random with the run seed
        assert np.array_equal(store["decoder.layer.0.self_attn.q.weight"].data,
                              fresh["decoder.layer.0.self_attn.q.weight"].data)
        assert report["encoder.layer.0.self_attn.q.weight"].startswith("copied-from")
        assert report["decoder.layer.0.self_attn.q.weight"] == "randomized"
        assert store.provenance == ["denoise-stage"]

    def test_bert_bert_symmetric(self, tmp_path):
        config = cfg()
        src = all_random(config, 99, "mlm_encoder")
        path = tmp_path / "enc-all-random.ckpt"
        src.save(path)
        store, report = apply_scheme(
            InitScheme(encoder=str(path), decoder="symmetric"), config, 5)
        for k in range(config.num_layers):
            for proj in ("q", "k", "v", "o"):
                src_w = src[f"encoder.layer.{k}.self_attn.{proj}.weight"].data
                assert np.array_equal(
                    store[f"decoder.layer.{k}.cross_attn.{proj}.weight"].data, src_w)
                assert np.array_equal(
                    store[f"decoder.layer.{k}.self_attn.{proj}.weight"].data, src_w)
        # every decoder parameter (norms, FFN and biases too) mirrors its
        # encoder counterpart, in data and in the report
        decoder = [n for n in store.names() if n.startswith("decoder.layer.")]
        assert len(decoder) == config.num_layers * 26
        for name in decoder:
            source = mirror_source(name)
            assert np.array_equal(store[name].data, src[source].data), name
            assert report[name] == f"copied-from {source}"
        # decoder positional table copied from the encoder's leading rows
        n = config.decoder_positions
        assert np.array_equal(store["embedding.pos_dec"].data,
                              src["embedding.pos_enc"].data[:n])

    def test_gate_and_output_bias_always_random(self, encoder_ckpt):
        config, _, path = encoder_ckpt
        _, report = apply_scheme(InitScheme(encoder=path, decoder="symmetric"),
                                 config, 5)
        for name in ALWAYS_RANDOM:
            assert report[name] == "randomized"

    def test_symmetric_without_encoder_rejected(self):
        with pytest.raises(SurgeryError):
            apply_scheme(InitScheme(decoder="symmetric"), cfg(), 0)

    def test_missing_source_param_named(self, tmp_path):
        config = cfg()
        full = init_random(config, 0, arch="mlm_encoder")
        src = ParamStore({name: t for name, t in full.params.items()
                          if name != "encoder.layer.1.ffn.out.weight"}, full.fingerprint)
        path = tmp_path / "broken.ckpt"
        src.save(path)
        with pytest.raises(SurgeryError, match="encoder.layer.1.ffn.out.weight"):
            apply_scheme(InitScheme(encoder=str(path)), config, 0)

    def test_report_covers_all_params_disjointly(self, encoder_ckpt):
        config, _, path = encoder_ckpt
        store, report = apply_scheme(InitScheme(encoder=path, decoder="symmetric"),
                                     config, 5)
        assert set(report) == set(store.names())
        for v in report.values():
            assert v == "randomized" or v.startswith("copied-from")

    def test_symmetric_shorter_encoder_table(self, tmp_path):
        """A decoder table longer than the encoder's takes the encoder's rows
        and keeps init_random's for the rest."""
        config = cfg(encoder_positions=5, decoder_positions=8)
        src = all_random(config, 99, "mlm_encoder")
        path = tmp_path / "short-enc.ckpt"
        src.save(path)
        store, report = apply_scheme(
            InitScheme(encoder=str(path), decoder="symmetric"), config, 5)
        pos_dec = store["embedding.pos_dec"].data
        assert np.array_equal(pos_dec[:5], src["embedding.pos_enc"].data)
        assert np.array_equal(pos_dec[5:],
                              init_random(config, 5)["embedding.pos_dec"].data[5:])
        assert report["embedding.pos_dec"] == "copied-from embedding.pos_enc (first 5 rows)"

    def test_decoder_only_source(self, tmp_path):
        config = cfg()
        src = all_random(config, 42, "seq2seq")
        src.provenance = ["stageA", "stageB"]
        path = tmp_path / "full.ckpt"
        src.save(path)
        store, report = apply_scheme(InitScheme(decoder=str(path)), config, 5)
        fresh = init_random(config, 5)
        copied = ["embedding.word", "embedding.pos_dec"] + [
            n for n in store.names() if n.startswith("decoder.layer.")]
        assert len(copied) == 2 + config.num_layers * 26
        for name in store.names():
            if name in copied:
                assert np.array_equal(store[name].data, src[name].data), name
                assert report[name].startswith(f"copied-from {name}"), name
            else:
                assert np.array_equal(store[name].data, fresh[name].data), name
                assert report[name] == "randomized", name
        assert report["embedding.pos_dec"] == "copied-from embedding.pos_dec (first 8 rows)"
        assert store.provenance == ["stageA", "stageB"]

    def test_position_table_width_mismatch_rejected(self, tmp_path):
        path = tmp_path / "wide.ckpt"
        init_random(cfg(hidden_size=32), 0).save(path)
        with pytest.raises(IncompatibilityError, match="embedding.pos_dec"):
            apply_scheme(InitScheme(decoder=str(path)), cfg(), 0)

    def test_selector_with_decoder_scheme_rejected(self, encoder_ckpt):
        config, _, path = encoder_ckpt
        for decoder in ("symmetric", path):
            with pytest.raises(SurgeryError, match="selector has no decoder"):
                apply_scheme(InitScheme(encoder=path, decoder=decoder), config, 0,
                             arch="selector")

    def test_seq2seq_decoder_source(self, tmp_path):
        config = cfg()
        src = init_random(config, 42)
        src.provenance = ["stageA", "stageB"]
        path = tmp_path / "full.ckpt"
        src.save(path)
        store, report = apply_scheme(
            InitScheme(encoder=str(path), decoder=str(path)), config, 5)
        assert np.array_equal(store["decoder.layer.1.cross_attn.k.weight"].data,
                              src["decoder.layer.1.cross_attn.k.weight"].data)
        assert store.provenance == ["stageA", "stageB"]


class TestApplyPartial:
    @pytest.fixture
    def source(self):
        config = cfg()
        return config, init_random(config, 123)

    def test_k0_all_random(self, source):
        config, src = source
        store, report = apply_partial(src, config, 0, 5)
        fresh = init_random(config, 5)
        for n in store.names():
            assert np.array_equal(store[n].data, fresh[n].data)
        assert all(v == "randomized" for v in report.values())

    def test_k1_embeddings_only(self, source):
        config, src = source
        store, report = apply_partial(src, config, 1, 5)
        assert np.array_equal(store["embedding.word"].data,
                              src["embedding.word"].data)
        copied = [n for n, v in report.items() if v.startswith("copied")]
        assert set(copied) == {"embedding.word", "embedding.pos_enc",
                               "embedding.pos_dec"}

    def test_k3_embeddings_plus_two_encoder_layers(self, source):
        config, src = source
        store, report = apply_partial(src, config, 3, 5)
        assert report["encoder.layer.0.ffn.in.weight"].startswith("copied")
        assert report["encoder.layer.1.ffn.in.weight"].startswith("copied")
        assert report["decoder.layer.0.ffn.in.weight"] == "randomized"

    def test_top_k_loads_everything_except_always_random(self, source):
        config, src = source
        store, report = apply_partial(src, config, 2 * config.num_layers, 5)
        for n, v in report.items():
            if n in ALWAYS_RANDOM:
                assert v == "randomized"
            else:
                assert v.startswith("copied"), n

    def test_monotone_subsets(self, source):
        config, src = source
        prev = set()
        for k in range(2 * config.num_layers + 1):
            _, report = apply_partial(src, config, k, 5)
            copied = {n for n, v in report.items() if v.startswith("copied")}
            assert prev <= copied
            if k > 0:
                assert prev < copied
            prev = copied

    def test_k_out_of_range(self, source):
        config, src = source
        with pytest.raises(ValueError):
            apply_partial(src, config, 2 * config.num_layers + 1, 5)
        with pytest.raises(ValueError):
            apply_partial(src, config, -1, 5)

    @pytest.mark.parametrize("layers", [1, 3])
    def test_slots_and_always_random_partition_params(self, layers):
        config = cfg(num_layers=layers)
        names = [n for slot in loadable_slots(config) for n in slot]
        names += list(ALWAYS_RANDOM)
        spec = [n for n, _, _ in M.param_spec(config, "seq2seq")]
        assert len(names) == len(set(names))
        assert set(names) == set(spec)

    def test_slot_order(self):
        slots = loadable_slots(cfg())
        assert "embedding.word" in slots[0]
        assert slots[1][0].startswith("encoder.layer.0")
        assert slots[2][0].startswith("encoder.layer.1")
        assert slots[3][0].startswith("decoder.layer.0")
        assert slots[4][0].startswith("decoder.layer.1")


class TestCopyEncoder:
    def test_copies_embeddings_and_encoder_only(self, tmp_path):
        config = cfg()
        src = all_random(config, 42, "seq2seq")
        src.provenance = ["stageA"]
        path = tmp_path / "full.ckpt"
        src.save(path)
        target, report = apply_scheme(InitScheme(encoder=str(path)), config, 7,
                                      arch="selector")
        fresh = init_random(config, 7, arch="selector")
        expected = {"embedding.word", "embedding.pos_enc"} | {
            n for n in target.names() if n.startswith("encoder.layer.")}
        assert set(report) == set(target.names())
        assert set(target.names()) - expected == {"selector.weight", "selector.bias"}
        for name in target.names():
            if name in expected:
                assert np.array_equal(target[name].data, src[name].data), name
                assert report[name] == f"copied-from {name}"
            else:
                assert np.array_equal(target[name].data, fresh[name].data), name
                assert report[name] == "randomized"
        assert target.provenance == ["stageA"]


class TestChainStage:
    def test_format_surgery_report(self):
        text = format_surgery_report({"b": "randomized", "a": "copied-from a"})
        assert text == "a\tcopied-from a\nb\trandomized\n"


def assert_in_arena(store):
    """Every parameter's .data and .grad are C-ordered views of its own
    slice of the store's `flat` and `grad`, in name order, covering both."""
    at = 0
    for name, t in store.params.items():
        for view, arena in ((t.data, store.flat), (t.grad, store.grad)):
            assert view.flags.c_contiguous, name
            assert np.shares_memory(view, arena), name
            start = view.__array_interface__["data"][0] - arena.__array_interface__["data"][0]
            assert start == 8 * at, name
        at += t.data.size
    assert at == store.flat.size == store.grad.size


class TestArena:
    def test_views_after_training_copy_load_and_surgery(self, tmp_path, monkeypatch):
        config = small_config()
        data = [example_for(config, [5 + i, 6, 7], [5 + i, 3]) for i in range(4)]
        loss_fn, seen = training._LOSS_FNS["summarize"], []

        def checked(store, *args):
            # the store being trained, after the previous step's update
            assert_in_arena(store)
            seen.append(store)
            return loss_fn(store, *args)

        monkeypatch.setitem(training._LOSS_FNS, "summarize", checked)
        trained, _ = training.train_stage(
            init_random(config, 0), config, data, [],
            training.TrainConfig(lr=1e-2, dropout=0.1, batch_size=2, max_epochs=2))
        assert len(seen) == 4
        assert_in_arena(trained)
        assert_in_arena(trained.copy())
        path = tmp_path / "t.ckpt"
        trained.save(path)
        loaded = ParamStore.load(path)
        assert_in_arena(loaded)
        assert loaded.flat.tobytes() == trained.flat.tobytes()
        enc = tmp_path / "enc.ckpt"
        init_random(config, 1, arch="mlm_encoder").save(enc)
        for store, _ in (apply_scheme(InitScheme(encoder=str(enc), decoder="symmetric"),
                                      config, 2),
                         apply_partial(loaded, config, 1, 3)):
            assert_in_arena(store)

    def test_copy_owns_its_arena(self):
        store = init_random(cfg(), 0)
        twin = store.copy()
        assert not np.shares_memory(store.flat, twin.flat)
        assert not np.shares_memory(store.grad, twin.grad)
        twin["gate.bias"].data += 1.0
        twin["gate.bias"].grad += 1.0
        assert not store["gate.bias"].data.any() and not store.grad.any()
