"""Training-loop tests: losses, masking recipe, dev selection, determinism."""

import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_model as R
from stagesum import autodiff as ad
from stagesum import model as M
from stagesum import search
from stagesum import selection as sel
from stagesum import training
from stagesum.autodiff import Tensor
from stagesum.checkpoint import init_random
from stagesum.tokenizer import EOS, MASK, PAD, RESERVED, Vocabulary
from stagesum.training import (CLAMP_FLOOR, TrainConfig, _mask_tokens, _stack,
                               mle_loss, denoise_pretrain, train_stage)

from conftest import saved_arrays
from test_model import example_for, row_cases, small_config
from test_search import count_calls, peaked_store


class TestMleLoss:
    def test_perfect_prediction_zero_loss(self):
        probs = Tensor(np.eye(3)[[0, 1, 2]])
        loss, n = mle_loss(probs, np.array([0, 1, 2]), np.zeros(3, bool))
        assert float(loss.data) == 0.0
        assert n == 3

    def test_uniform_vocab4_is_ln4(self):
        probs = Tensor(np.full((2, 4), 0.25))
        loss, n = mle_loss(probs, np.array([1, 3]), np.zeros(2, bool))
        assert abs(float(loss.data) - np.log(4)) < 1e-12
        assert n == 2

    def test_pads_excluded(self):
        probs = Tensor(np.vstack([np.full(4, 0.25), np.eye(4)[0]]))
        full, _ = mle_loss(probs, np.array([1, 0]), np.array([False, True]))
        assert abs(float(full.data) - np.log(4)) < 1e-12

    def test_all_pad_rejected(self):
        with pytest.raises(training.StageError):
            mle_loss(Tensor(np.full((1, 4), 0.25)), np.array([0]),
                     np.array([True]))

    def test_rows_pool_positions(self):
        probs = Tensor(np.stack([np.full((2, 4), 0.25), np.eye(4)[[0, 1]]]))
        loss, n = mle_loss(probs, np.array([[1, 3], [0, 1]]),
                           np.array([[False, False], [False, True]]))
        assert n == 3
        assert abs(float(loss.data) - 2 * np.log(4) / 3) < 1e-12

    def test_any_all_pad_row_rejected(self):
        with pytest.raises(training.StageError):
            mle_loss(Tensor(np.full((2, 1, 4), 0.25)), np.array([[0], [0]]),
                     np.array([[False], [True]]))

    def test_clamp_counter(self):
        probs = Tensor(np.array([[1e-40, 1.0 - 1e-40]]))
        loss, _ = mle_loss(probs, np.array([0]), np.array([False]))
        assert np.isfinite(float(loss.data))


class TestMaskTokens:
    def test_only_nonpad_masked(self):
        rng = np.random.default_rng(0)
        ids = np.array([7, 8, 9, PAD, PAD])
        pad = np.array([False, False, False, True, True])
        for _ in range(50):
            corrupted, picked = _mask_tokens(ids, pad, 16, rng)
            assert (picked < 3).all()
            assert (corrupted[3:] == PAD).all()

    def test_masked_fraction_near_15_percent(self):
        rng = np.random.default_rng(1)
        ids = np.arange(5, 105)
        pad = np.zeros(100, bool)
        total = sum(len(_mask_tokens(ids, pad, 200, rng)[1]) for _ in range(200))
        assert abs(total / (200 * 100) - 0.15) < 0.01

    def test_corruption_split(self):
        rng = np.random.default_rng(2)
        ids = np.full(200, 50)
        pad = np.zeros(200, bool)
        n_mask = n_keep = n_rand = 0
        for _ in range(100):
            corrupted, picked = _mask_tokens(ids, pad, 96, rng)
            vals = corrupted[picked]
            n_mask += int((vals == MASK).sum())
            n_keep += int((vals == 50).sum())
            n_rand += int(((vals != MASK) & (vals != 50)).sum())
        total = n_mask + n_keep + n_rand
        assert abs(n_mask / total - 0.8) < 0.03
        # the "random token" 10% can also draw the original id by chance
        assert abs(n_rand / total - 0.1) < 0.03
        assert abs(n_keep / total - 0.1) < 0.03

    def test_random_replacement_never_reserved(self):
        rng = np.random.default_rng(3)
        ids = np.full(500, 40)
        corrupted, picked = _mask_tokens(ids, np.zeros(500, bool), 96, rng)
        assert (corrupted[picked] >= MASK).all()  # never PAD/UNK/BOS/EOS


def tiny_data(config, n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        L = int(rng.integers(2, 5))
        src = rng.integers(5, config.vocab_size, L)
        tgt = list(src[: max(1, L - 1)]) + [EOS]
        out.append(example_for(config, list(src), tgt))
    return out


class TestTrainStage:
    def test_deterministic_trajectories(self):
        config = small_config()
        data = tiny_data(config, 6)
        vocab = Vocabulary(RESERVED + [f"w{i}" for i in range(config.vocab_size - 5)])
        dev = [(ex, "w1 w2") for ex in data[:2]]
        tcfg = TrainConfig(lr=1e-3, dropout=0.1, batch_size=2, max_epochs=2, seed=4)
        s1, r1 = train_stage(init_random(config, 0), config, data, dev, tcfg, vocab)
        s2, r2 = train_stage(init_random(config, 0), config, data, dev, tcfg, vocab)
        assert r1.records == r2.records
        for n in s1.names():
            assert np.array_equal(s1[n].data, s2[n].data)

    def test_best_metric_is_max_of_trajectory(self):
        config = small_config()
        data = tiny_data(config, 6)
        vocab = Vocabulary(RESERVED + [f"w{i}" for i in range(config.vocab_size - 5)])
        dev = [(ex, "w1 w2") for ex in data[:2]]
        tcfg = TrainConfig(lr=1e-3, dropout=0.0, batch_size=3, max_epochs=3, seed=1)
        _, report = train_stage(init_random(config, 0), config, data, dev, tcfg, vocab)
        trajectory = [rec["dev_metric"] for rec in report.records
                      if "dev_metric" in rec]
        assert report.best_metric >= max(trajectory)

    def test_saved_arrays_freed_before_the_next_forward(self, monkeypatch):
        """The replay drops every reference to what a minibatch's graph
        saved for backward while train_stage still holds the graph's loss,
        so none of it is alive when backward() returns, nor when the next
        minibatch's forward starts."""
        config = small_config()
        loss_fn = training._LOSS_FNS["summarize"]
        real_backward = ad.Tensor.backward
        refs, alive = [], []

        def backward(loss):
            real_backward(loss)
            if not alive:
                alive.append(sum(ref() is not None for ref in refs))

        def watched(*args):
            if refs and len(alive) == 1:
                alive.append(sum(ref() is not None for ref in refs))
            out = loss_fn(*args)
            if not refs:
                refs.extend(weakref.ref(a) for a in saved_arrays(ad._active_tape.nodes))
            return out

        monkeypatch.setattr(ad.Tensor, "backward", backward)
        monkeypatch.setitem(training._LOSS_FNS, "summarize", watched)
        train_stage(init_random(config, 0), config, tiny_data(config, 4), [],
                    TrainConfig(lr=1e-3, dropout=0.1, batch_size=2, max_epochs=1))
        assert refs and alive == [0, 0]

    def test_each_minibatch_recycles_the_previous_graphs_arena(self, monkeypatch):
        """train_stage resets one arena before every minibatch's forward.
        When it does, no value of the previous minibatch's graph is alive,
        the graph whose loss counted nothing (the `continue` path) included;
        and a minibatch's values written into the arena occupy the memory
        the previous minibatch's did."""
        config = small_config()
        r = np.random.default_rng(2)
        data = [example_for(config, list(r.integers(5, 12, 4)), list(r.integers(5, 12, 3)))
                for _ in range(8)]
        loss_fn = training._LOSS_FNS["summarize"]
        real_reset = ad.Arena.reset
        graph, dead, extents = [], [], []

        def reset(arena):
            dead.append(all(ref() is None for ref in graph))
            graph.clear()
            real_reset(arena)

        def watched(*args):
            loss, count = loss_fn(*args)
            nodes = ad._active_tape.nodes
            owners = {id(b) for b in ad._active_tape.arena._owners}
            graph.extend(weakref.ref(t.data) for t in nodes)
            extents.append([(t.data.ctypes.data, t.data.nbytes) for t in nodes
                            if id(t.data.base) in owners])
            # the second minibatch takes the `continue` path
            return loss, 0 if len(extents) == 2 else count

        monkeypatch.setattr(ad.Arena, "reset", reset)
        monkeypatch.setitem(training._LOSS_FNS, "summarize", watched)
        train_stage(init_random(config, 0), config, data, [],
                    TrainConfig(lr=1e-3, dropout=0.1, batch_size=2, max_epochs=1))
        assert len(extents) == 4 and dead == [True] * 4
        assert len(extents[1]) > 20 and extents[1] == extents[2] == extents[3]

    def test_empty_corpus_rejected(self):
        config = small_config()
        with pytest.raises(training.StageError):
            train_stage(init_random(config, 0), config, [], [],
                        TrainConfig(), None)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)
        config = small_config()
        with pytest.raises(ValueError, match="nonsense"):
            train_stage(init_random(config, 0), config, tiny_data(config, 2), [],
                        TrainConfig(), stage="nonsense")
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="max_epochs"):
            TrainConfig(max_epochs=-1)


class TestDenoise:
    def test_loss_decreases_by_half(self):
        config = small_config(vocab_size=16, encoder_positions=12)
        data = []
        for i in range(24):
            # learnable structure: masked tokens equal their neighbors
            c = 5 + i % 11
            data.append(example_for(config, [c] * 8, [c, EOS]))
        _, report = train_stage(
            init_random(config, 0, arch="mlm_encoder"), config, data, data,
            TrainConfig(lr=1e-2, dropout=0.0, batch_size=8, max_epochs=40,
                        seed=0), stage="denoise")
        # dev metric is negative masked-token loss: first epoch vs best
        baseline = -report.records[0]["dev_metric"]
        best = -report.best_metric
        assert best <= 0.5 * baseline, (baseline, best)

    def test_unmasked_positions_no_loss(self):
        config = small_config()
        store = init_random(config, 0, arch="mlm_encoder")
        ex = example_for(config, [5, 6, 7, 8], [5, EOS])

        class NoPickRng:
            """Forces the 15% draw to pick nothing."""

            def random(self, n):
                return np.ones(n)

            def integers(self, *a, **k):
                return 5

        loss, n = training._denoise_loss(store, config, [ex], NoPickRng(), 0.0)
        assert n == 0
        assert float(loss.data) == 0.0

    def test_checkpoint_loads_under_schemes(self, tmp_path):
        config = small_config()
        data = tiny_data(config, 4)
        store, _ = denoise_pretrain(
            config, TrainConfig(lr=1e-3, dropout=0.0, batch_size=2,
                                max_epochs=1, seed=0), data, [])
        path = tmp_path / "denoise.ckpt"
        store.save(path)
        from stagesum.checkpoint import InitScheme, apply_scheme
        br, _ = apply_scheme(InitScheme(encoder=str(path)), config, 0)
        bb, _ = apply_scheme(InitScheme(encoder=str(path), decoder="symmetric"),
                             config, 0)
        for out in (br, bb):
            assert np.array_equal(out["encoder.layer.0.ffn.in.weight"].data,
                                  store["encoder.layer.0.ffn.in.weight"].data)


def per_example_loss(stage, store, config, items, rng, rate):
    """The loop the batched stage losses replace: one one-row graph per
    item, each drawing its dropout from rng as it runs, the items' summed
    losses added in order."""
    def drop(target_len=0):
        lengths = (config.encoder_positions, target_len)
        return M.dropout_scales(config, rng.random((1, M.dropout_draws(config, *lengths))),
                                lengths, lengths, rate)

    parts, count = [], 0
    for item in items:
        if stage == "denoise":
            corrupted, picked = _mask_tokens(item.source_ids, item.source_pad_mask,
                                             config.vocab_size, rng)
            if len(picked) == 0:
                continue
            enc = M.encode(store, config, corrupted[None], item.source_pad_mask[None],
                           drop()[0])[0]
            probs = ad.softmax(R.matmul(enc, store["embedding.word"].transpose())
                               + store["mlm.bias"], axis=-1)
            picked_p = probs[(picked, item.source_ids[picked])]
            loss, n = -ad.log(ad.clamp_min(picked_p, CLAMP_FLOOR)).sum(), len(picked)
        elif stage == "summarize":
            probs, _ = M.forward_teacher_forced(store, config, _stack([item]),
                                                drop=drop(config.decoder_positions))
            loss, n = mle_loss(probs[0], item.target_ids, item.target_pad_mask)
            loss = loss * n
        else:
            ex, labels = item
            enc = M.encode(store, config, ex.source_ids[None], ex.source_pad_mask[None],
                           drop()[0])[0]
            n = int((~ex.source_pad_mask).sum())
            loss = sel.selector_loss(sel.selector_forward(store, enc), labels,
                                     ex.source_pad_mask) * n
        parts.append(loss)
        count += n
    if not parts:
        return Tensor(0.0), 0
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total, count


ARCH = {"denoise": "mlm_encoder", "summarize": "seq2seq", "select": "selector"}


def build_case(stage, num_layers, seed, n_items):
    """A random model and a minibatch of n_items examples with ragged
    sources and targets, all drawn from seed.  The norm biases are drawn
    from N(0, 1e-3): with zero biases, a position dropped at the embedding
    and after every sublayer reaches a layer norm as an exactly constant
    row, which the norm scales by 1/sqrt(1e-12), and its gradient keeps no
    digits to compare."""
    config = small_config(num_layers=num_layers, hidden_size=12, num_heads=3,
                          vocab_size=16, encoder_positions=9, decoder_positions=5)
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n_items):
        n_src = int(rng.integers(1, config.encoder_positions + 1))
        n_tgt = int(rng.integers(1, config.decoder_positions + 1))
        ex = example_for(config, rng.integers(5, config.vocab_size, n_src),
                         rng.integers(3, config.vocab_size, n_tgt))
        items.append((ex, rng.integers(0, 2, n_src)) if stage == "select" else ex)
    store = init_random(config, seed, arch=ARCH[stage])
    for name in store.names():
        if name.endswith("_norm.bias"):
            store[name].data[...] = rng.normal(0.0, 1e-3, store[name].shape)
    return stage, config, store, items, seed


@st.composite
def stage_cases(draw):
    """A stage kind, a random model (1-3 layers, dropout on) and a minibatch
    of 1-4 examples (`build_case`)."""
    return build_case(draw(st.sampled_from(sorted(ARCH))), draw(st.integers(1, 3)),
                      draw(st.integers(0, 2 ** 16)), draw(st.integers(1, 4)))


def loss_and_grads(loss_fn, store, config, items, seed, rate=0.3):
    # one generator for dropout and masking, as train_stage passes it
    rng = np.random.default_rng(seed)
    store.zero_grads()
    with ad.new_tape():
        loss, n = loss_fn(store, config, items, rng, rate)
        if n:
            (loss / n).backward()
    return float(loss.data), n, {name: store[name].grad.copy() for name in store}


class TestBatchedLosses:
    """Every stage loss on a minibatch is the per-example loop's sum, with
    dropout on: the same masks, loss and gradients to rounding."""

    @settings(deadline=None, max_examples=40)
    @given(stage_cases())
    # real source lengths 9, 8, 2 and 9: a constant layer-norm row with zero
    # norm biases
    @example(build_case("select", 2, 51244, 4))
    def test_matches_per_example_loop(self, case):
        stage, config, store, items, seed = case
        loss, n, grads = loss_and_grads(training._LOSS_FNS[stage], store, config,
                                        items, seed)
        ref_loss, ref_n, ref_grads = loss_and_grads(
            lambda *a: per_example_loss(stage, *a), store, config, items, seed)
        assert n == ref_n
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        # Relative to the largest gradient entry of the model: a tensor whose
        # gradient sums terms that cancel (e.g. a key bias, whose true
        # gradient is zero) keeps the rounding error of the terms.
        scale = max(np.abs(g).max() for g in ref_grads.values())
        for name, ref in ref_grads.items():
            assert np.abs(grads[name] - ref).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("seed", range(3))
    def test_denoise_draws_follow_each_examples_masking(self, seed):
        # full-length sources, so that several examples mask something and
        # each one's dropout block must come right after its masking draws
        config = small_config(hidden_size=12, num_heads=3, vocab_size=16,
                              encoder_positions=9)
        store = init_random(config, seed, arch="mlm_encoder")
        rng = np.random.default_rng(seed)
        items = [example_for(config, rng.integers(5, 16, 9), [5]) for _ in range(4)]
        loss, n, _ = loss_and_grads(training._denoise_loss, store, config, items, seed)
        ref_loss, ref_n, _ = loss_and_grads(
            lambda *a: per_example_loss("denoise", *a), store, config, items, seed)
        assert n == ref_n
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)

    def test_train_stage_encodes_once_per_minibatch(self, monkeypatch):
        config = small_config()
        data = tiny_data(config, 7)
        encodes = count_calls(monkeypatch, M, "encode")
        train_stage(init_random(config, 0), config, data, [],
                    TrainConfig(lr=1e-3, dropout=0.1, batch_size=3, max_epochs=2))
        assert encodes[0] == 2 * 3


def recorded(module, name, calls):
    """module.name, appending (args, result) to calls on every call."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args, out))
        return out
    return wrapper


class TestDecodeCorpus:
    """decode_corpus makes one search call on every example, cut to the
    corpus's longest real source; the tokens are the ones the search gives
    on the full-length arrays."""

    @settings(deadline=None, max_examples=30)
    @given(row_cases(max_rows=6), st.floats(0.5, 1.5), st.sampled_from(["greedy", "beam"]))
    def test_cut_sources_decode_as_full_length(self, case, eos_bias, mode):
        config, store, examples, selected, _, _ = case
        store = peaked_store(store, eos_bias)
        vocab = Vocabulary(RESERVED + [f"w{i}" for i in range(config.vocab_size - 5)])
        name = f"{mode}_decode"
        decode, calls = getattr(search, name), []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, name, recorded(search, name, calls))
            training.decode_corpus(store, config, examples, vocab, selected,
                                   mode=mode, beam_width=2)
        real = [int((~ex.source_pad_mask).sum()) for ex in examples]
        batch = _stack(examples)
        (args, got), = calls
        assert args[2].shape == (len(examples), max(real))
        assert got == decode(store, config, batch.source_ids, batch.source_pad_mask,
                             selected, **({} if mode == "greedy" else {"beam_width": 2}))
