"""Transformer and copy-attention head tests."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagesum import autodiff as ad
from stagesum import model as M
from stagesum import training
from stagesum.autodiff import Tensor
from stagesum.checkpoint import init_random
from stagesum.tokenizer import BOS, PAD, EncodedExample
from stagesum.training import _cut, _stack


def small_config(**kw):
    base = dict(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                vocab_size=12, encoder_positions=10, decoder_positions=6)
    base.update(kw)
    return M.ModelConfig(**base)


def example_for(config, src, tgt):
    source = np.full(config.encoder_positions, PAD, dtype=np.int64)
    source[: len(src)] = src
    target = np.full(config.decoder_positions, PAD, dtype=np.int64)
    target[: len(tgt)] = tgt
    return EncodedExample(
        source_ids=source, target_ids=target,
        source_pad_mask=np.arange(config.encoder_positions) >= len(src),
        target_pad_mask=np.arange(config.decoder_positions) >= len(tgt),
        source_truncated=False, target_truncated=False)


@pytest.fixture
def config():
    return small_config()


@pytest.fixture
def store(config):
    return init_random(config, seed=0)


class TestConfig:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError):
            small_config(hidden_size=9)


class TestEncode:
    def test_all_pad_rejected(self, store, config):
        ids = np.zeros(config.encoder_positions, dtype=np.int64)
        with pytest.raises(ValueError):
            M.encode(store, config, ids, np.ones(config.encoder_positions, bool))

    def test_pad_region_garbage_invariance(self, store, config):
        ex = example_for(config, [5, 6, 7], [5])
        out1 = M.encode(store, config, ex.source_ids, ex.source_pad_mask).data
        # swap two pad positions' token ids (garbage content)
        ids2 = ex.source_ids.copy()
        ids2[4], ids2[8] = 9, 3
        out2 = M.encode(store, config, ids2, ex.source_pad_mask).data
        assert np.array_equal(out1[:3], out2[:3])

    def test_single_token_independent_of_pads(self, store, config):
        ex = example_for(config, [5], [5])
        out1 = M.encode(store, config, ex.source_ids, ex.source_pad_mask).data
        ids2 = ex.source_ids.copy()
        ids2[1:] = 7
        out2 = M.encode(store, config, ids2, ex.source_pad_mask).data
        assert np.array_equal(out1[0], out2[0])

    def test_position_overflow_rejected(self, store, config):
        ids = np.full(config.encoder_positions + 1, 5, dtype=np.int64)
        with pytest.raises(ad.ShapeError):
            M.encode(store, config, ids, np.zeros(len(ids), bool))

    def test_id_out_of_vocab_rejected(self, store, config):
        ids = np.array([config.vocab_size])
        with pytest.raises(ad.ShapeError):
            M.encode(store, config, ids, np.zeros(1, bool))


def start(store, config, ex, selected=None):
    """A decode state over one source: `start_rows` of [ex]."""
    return start_rows(store, config, [ex], None if selected is None else selected[None])


def start_rows(store, config, examples, selected=None):
    """A decode state with one source per example, as `search.greedy_decode`
    and `search.beam_decode` build it."""
    batch = _stack(examples)
    return M.start_decode(store, config, batch.source_ids, batch.source_pad_mask, selected)


class TestDecodeStep:
    def test_t0_with_bos_prefix(self, store, config):
        ex = example_for(config, [5, 6], [5])
        state = M.decode_step(store, config, start(store, config, ex), [[BOS]])
        assert state.gen_logits.shape == (1, 1, config.vocab_size)
        assert 0.0 < state.p_gen[0, 0] < 1.0
        assert np.isfinite(state.mixed_logits).all()

    def test_causal_invariance(self, store, config):
        probs1, _ = M.forward_teacher_forced(
            store, config, example_for(config, [5, 6], [5, 7, 8]))
        probs2, _ = M.forward_teacher_forced(
            store, config, example_for(config, [5, 6], [5, 9, 10]))
        # step-1 distribution depends only on the prefix up to position 1
        assert np.array_equal(probs1.data[1], probs2.data[1])

    def test_prefix_too_long_rejected(self, store, config):
        ex = example_for(config, [5], [5])
        state = start(store, config, ex)
        for _ in range(config.decoder_positions):
            M.decode_step(store, config, state, [[BOS]])
        with pytest.raises(M.DecodeError):
            M.decode_step(store, config, state, [[5]])

    def test_cached_call_takes_one_step(self, store, config):
        """A cached call has no causal mask, so a call over two steps would
        let the first attend to the second: it is rejected and leaves the
        state as it was."""
        ex = example_for(config, [5, 6], [5])
        state = start(store, config, ex)
        M.decode_step(store, config, state, [[BOS]])
        with pytest.raises(M.DecodeError):
            M.decoder_stack(store, config, state, np.array([[[5, 6]]]))
        assert state.position == 1
        assert [k.shape[-2] for k, _ in state.self_kv.values()] == [1] * config.num_layers
        assert M.decode_step(store, config, state, [[5]]).p_gen.shape == (1, 1)

    def test_tied_embedding_projection(self, store, config):
        ex = example_for(config, [5, 6], [5])
        state = M.decode_step(store, config, start(store, config, ex), [[BOS]])
        manual = store["embedding.word"].data @ state.d_t[0, 0] + store["output.bias"].data
        assert np.allclose(state.gen_logits[0, 0], manual, rtol=0, atol=1e-12)

    def test_copy_logits_are_designated_head_row(self, store, config):
        ex = example_for(config, [5, 6, 7], [5])
        state = M.decode_step(store, config, start(store, config, ex), [[BOS]])
        assert np.array_equal(state.copy_logits,
                              state.cross_logits[:, :, M.COPY_HEAD])

    def test_row_count_must_match_state(self, store, config):
        ex = example_for(config, [5, 6], [5])
        state = start(store, config, ex)
        # the first step sets how many rows the source has
        M.decode_step(store, config, state, [[BOS, BOS]])
        for tokens in ([[5]], [[5, 6, 7]]):
            with pytest.raises(ValueError):
                M.decode_step(store, config, state, tokens)
        assert M.decode_step(store, config, state, [[5, 6]]).p_gen.shape == (1, 2)

    def test_token_count_must_match_sources(self, store, config):
        state = start_rows(store, config, [example_for(config, [5, 6], [5]),
                                           example_for(config, [7], [5])])
        for tokens in ([[BOS]], [[BOS]] * 3, [BOS, BOS]):
            with pytest.raises(ValueError):
                M.decode_step(store, config, state, tokens)
        assert M.decode_step(store, config, state, [[BOS], [BOS]]).mixed_logits.shape == (
            2, 1, config.vocab_size)


@st.composite
def decode_cases(draw):
    """A random model (1-3 layers, 1-4 heads), a source with or without
    padding, and an optional selection vector."""
    config = small_config(num_layers=draw(st.integers(1, 3)), hidden_size=12,
                          num_heads=draw(st.integers(1, 4)), vocab_size=14,
                          encoder_positions=8, decoder_positions=6)
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    n_src = draw(st.integers(1, config.encoder_positions))
    ex = example_for(config, rng.integers(5, config.vocab_size, n_src), [5])
    selected = (rng.random(config.encoder_positions) < 0.5
                if draw(st.booleans()) else None)
    return config, init_random(config, seed), ex, selected, rng


@st.composite
def row_cases(draw, max_rows=4):
    """A random model (1-3 layers, 1-4 heads), 1-max_rows examples with
    ragged source and target lengths, optional selection vectors and
    optional dropout."""
    config = small_config(num_layers=draw(st.integers(1, 3)), hidden_size=12,
                          num_heads=draw(st.integers(1, 4)), vocab_size=14,
                          encoder_positions=8, decoder_positions=6)
    rate = draw(st.sampled_from([0.0, 0.3]))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(draw(st.integers(1, max_rows))):
        n_src = int(rng.integers(1, config.encoder_positions + 1))
        n_tgt = int(rng.integers(1, config.decoder_positions + 1))
        examples.append(example_for(config, rng.integers(5, config.vocab_size, n_src),
                                    rng.integers(3, config.vocab_size, n_tgt)))
    selected = (rng.random((len(examples), config.encoder_positions)) < 0.5
                if draw(st.booleans()) else None)
    return config, init_random(config, seed), examples, selected, seed, rate


def steps_match_teacher_forced(case, width):
    """One or several rows per source ([sources, rows]), with a reorder
    part way that repeats or drops rows within each source and may drop
    whole sources."""
    config, store, examples, selected, seed, _ = case
    rng = np.random.default_rng(seed)
    sel = [None] * len(examples) if selected is None else list(selected)
    state = start_rows(store, config, examples, selected)
    sources = list(zip(examples, sel))
    # per source, per row: the tokens fed so far and that row's step outputs
    fed = [[[BOS] for _ in range(width)] for _ in sources]
    outs = [[[] for _ in range(width)] for _ in sources]
    reorder_at = int(rng.integers(1, config.decoder_positions))
    for t in range(config.decoder_positions):
        if t == reorder_at:
            keep = rng.random(len(sources)) < 0.7
            keep[rng.integers(len(sources))] = True
            back = rng.integers(0, width, (int(keep.sum()), int(rng.integers(1, 4))))
            state.reorder(keep, back)
            kept = np.flatnonzero(keep)
            fed, outs = ([[list(x[i][r]) for r in rows] for i, rows in zip(kept, back)]
                         for x in (fed, outs))
            sources = [sources[i] for i in kept]
        if t:
            for row in (row for rows in fed for row in rows):
                row.append(int(rng.integers(5, config.vocab_size)))
        step = M.decode_step(store, config, state,
                             [[row[-1] for row in rows] for rows in fed])
        for i, rows in enumerate(outs):
            for j, row in enumerate(rows):
                row.append({k: v[i, j] for k, v in vars(step).items()})
    # masked copy logits reach ~5e3, where one float64 ulp is ~1e-12
    close = dict(rtol=1e-12, atol=1e-12)
    for rows, row_outs, (ex, row_sel) in zip(fed, outs, sources):
        for row, steps in zip(rows, row_outs):
            target = example_for(config, ex.source_ids[~ex.source_pad_mask],
                                 row[1:] + [5])
            _, cache = M.forward_teacher_forced(store, config, target, row_sel)
            for t, out in enumerate(steps):
                assert np.allclose(out["mixed_logits"], cache["mixed_logits"].data[t],
                                   **close)
                assert np.allclose(out["gen_logits"], cache["gen_logits"].data[t],
                                   **close)
                assert np.allclose(out["d_t"], cache["decoder_out"].data[t], **close)
                assert np.allclose(out["cross_logits"],
                                   cache["cross_logits"].data[:, t], **close)
                assert np.allclose(out["copy_logits"], cache["copy_logits"].data[t],
                                   **close)
                assert np.allclose(out["p_gen"], cache["p_gen"].data[t], **close)


def batched_rows_equal_one_row_steps(case, width):
    """Each row of a step over several sources, each with `width` rows,
    is exactly what a one-row state of its source computes, so a batched
    decode picks the same tokens as one source at a time."""
    config, store, examples, selected, seed, _ = case
    rng = np.random.default_rng(seed)
    state = start_rows(store, config, examples, selected)
    alone = [[start(store, config, ex, None if selected is None else selected[r])
              for _ in range(width)] for r, ex in enumerate(examples)]
    tokens = np.full((len(examples), width), BOS)
    for _ in range(config.decoder_positions):
        step = vars(M.decode_step(store, config, state, tokens))
        for r, row_states in enumerate(alone):
            for j, row_state in enumerate(row_states):
                for key, value in vars(M.decode_step(store, config, row_state,
                                                     tokens[r:r + 1, j:j + 1])).items():
                    assert np.array_equal(step[key][r, j], value[0, 0]), key
        tokens = rng.integers(5, config.vocab_size, (len(examples), width))


def stacked_rows_match_rows(case):
    """`forward_teacher_forced` on stacked rows against one call per row."""
    config, store, examples, selected, seed, rate = case
    lengths = (config.encoder_positions, config.decoder_positions)
    n = M.dropout_draws(config, *lengths)

    def drop(rows):
        return M.dropout_scales(config, np.array(
            [np.random.default_rng([seed, r]).random(n) for r in rows]), lengths, lengths,
            rate)

    probs, cache = M.forward_teacher_forced(
        store, config, _stack(examples), selected,
        drop=drop(range(len(examples))) if rate > 0 else None)
    close = dict(rtol=1e-12, atol=1e-12)
    for r, ex in enumerate(examples):
        row_sel = None if selected is None else selected[r]
        if rate > 0:
            # a one-row call on row r's block is masked the same way
            row_probs, row_cache = M.forward_teacher_forced(
                store, config, _stack([ex]), None if row_sel is None else row_sel[None],
                drop=drop([r]))
            row_probs = row_probs[0]
            row_cache = {key: value[0] for key, value in row_cache.items()}
        else:
            row_probs, row_cache = M.forward_teacher_forced(store, config, ex, row_sel)
        assert np.allclose(probs.data[r], row_probs.data, **close)
        for key, value in row_cache.items():
            assert np.allclose(cache[key].data[r], value.data, **close), key


class TestIncrementalDecode:
    """start_decode/decode_step against the teacher-forced oracle."""

    @settings(deadline=None, max_examples=40)
    @given(row_cases(), st.integers(1, 3))
    def test_steps_match_teacher_forced(self, case, width):
        steps_match_teacher_forced(case, width)

    @settings(deadline=None, max_examples=30)
    @given(row_cases(), st.integers(1, 3))
    def test_batched_rows_equal_one_row_steps_bit_for_bit(self, case, width):
        batched_rows_equal_one_row_steps(case, width)


class TestRows:
    """A call on stacked rows against one call per row."""

    @settings(deadline=None, max_examples=40)
    @given(row_cases())
    def test_forward_teacher_forced_matches_rows(self, case):
        stacked_rows_match_rows(case)

    @settings(deadline=None, max_examples=20)
    @given(row_cases())
    def test_copy_inputs_per_row(self, case):
        config, _, examples, selected, _, _ = case
        batch = _stack(examples)
        ids, masks = M.copy_inputs(batch.source_ids, batch.source_pad_mask, selected,
                                   config.vocab_size)
        for r, ex in enumerate(examples):
            row_ids, row_mask = M.copy_inputs(
                ex.source_ids, ex.source_pad_mask,
                None if selected is None else selected[r], config.vocab_size)
            assert np.array_equal(ids[r], row_ids)
            assert (masks is None and row_mask is None) or np.array_equal(masks[r], row_mask)

    def test_encode_rejects_any_all_pad_row(self, store, config):
        ids = np.full((2, config.encoder_positions), 5)
        pad = np.zeros((2, config.encoder_positions), bool)
        pad[1] = True
        with pytest.raises(ValueError):
            M.encode(store, config, ids, pad)

    def test_pad_mask_add_rows(self):
        pm = M.pad_mask_add(np.array([[False, True], [True, False]]))
        assert pm.shape == (2, 1, 1, 2)
        assert np.array_equal(pm[1, 0, 0], [M.NEG_MASK, 0.0])

    def test_encode_graph_has_no_whole_batch_scores(self, store, config):
        """Self-attention is one `ad.attention` node: a stacked encode
        records no [rows, heads, S, S] scores."""
        rows, s = 3, config.encoder_positions
        pad = np.arange(s) >= np.array([[s], [2], [5]])
        with ad.new_tape() as tape:
            out = M.encode(store, config, np.full((rows, s), 5), pad)
        assert tape.nodes[-1] is out
        shapes = {node.shape for node in tape.nodes}
        assert (rows, s, config.hidden_size) in shapes
        assert (rows, config.num_heads, s, s) not in shapes


def recording_ops(monkeypatch) -> dict:
    """From now on, node id -> the name of the function that recorded it
    (`ad._make`'s caller: an `ad` op or a `Tensor` method)."""
    ops = {}
    make = ad._make

    def recording(data, parents, rules):
        out = make(data, parents, rules)
        if out._parents:
            ops[id(out)] = sys._getframe(1).f_code.co_name
        return out

    monkeypatch.setattr(ad, "_make", recording)
    return ops


def test_summarize_graph_is_fused(monkeypatch):
    """A 16-row minibatch of the benchmark's model records at most 85 nodes:
    each head split, head merge, FFN and residual sublayer is one node, so
    nothing sits between a projection and an attention node, or between an
    attention node and its output projection."""
    config = small_config(num_layers=2, hidden_size=32, num_heads=4, ffn_size=64,
                          vocab_size=40, encoder_positions=30, decoder_positions=10)
    rng = np.random.default_rng(0)
    items = [example_for(config, rng.integers(5, 40, rng.integers(1, 31)),
                         rng.integers(3, 40, rng.integers(1, 11))) for _ in range(16)]
    ops = recording_ops(monkeypatch)
    with ad.new_tape() as tape:
        training._summarize_loss(init_random(config, 0), config, items, rng, 0.1)
    op = {id(node): ops[id(node)] for node in tape.nodes}
    assert len(tape.nodes) <= 85
    merged = set()
    for node in tape.nodes:
        parents = [op.get(id(p)) for p in node._parents]
        if op[id(node)] == "attention":
            assert parents == ["split_heads"] * 3
        elif op[id(node)] == "attention_scores":
            assert parents == ["split_heads"] * 2
        elif op[id(node)] == "softmax_matmul":
            assert parents == ["attention_scores", "split_heads"]
        elif op[id(node)] == "merge_heads":
            assert parents[0] in ("attention", "softmax_matmul")
            merged.add(id(node._parents[0]))
    assert merged == {i for i, name in op.items() if name in ("attention", "softmax_matmul")}


@pytest.mark.usefixtures("one_row_attention_blocks")
class TestOneRowAttentionBlocks:
    """TestIncrementalDecode's and TestRows's stacked-against-per-row oracles
    with `ad.attention` working one leading row at a time."""

    @settings(deadline=None, max_examples=40)
    @given(row_cases(), st.integers(1, 3))
    def test_steps_match_teacher_forced(self, case, width):
        steps_match_teacher_forced(case, width)

    @settings(deadline=None, max_examples=30)
    @given(row_cases(), st.integers(1, 3))
    def test_batched_rows_equal_one_row_steps_bit_for_bit(self, case, width):
        batched_rows_equal_one_row_steps(case, width)

    @settings(deadline=None, max_examples=40)
    @given(row_cases())
    def test_forward_teacher_forced_matches_rows(self, case):
        stacked_rows_match_rows(case)

    def test_blocks_are_one_row(self):
        assert len(ad._row_blocks((3, 2, 4, 4))) == 3


class TestDropoutScales:
    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_layout_and_values(self, num_layers):
        """Site k of a half holds that site's draws (`dropout_draws` order)
        of the kept positions as 0 below the rate and 1/(1-rate) elsewhere,
        one C-contiguous [sites, rows, positions, 1] array per half."""
        config = small_config(num_layers=num_layers)
        lengths, kept = (6, 4), (3, 2)
        blocks = np.random.default_rng(num_layers).random(
            (2, M.dropout_draws(config, *lengths)))
        enc, dec = M.dropout_scales(config, blocks, lengths, kept, 0.3)
        assert enc.shape == (1 + 2 * num_layers, 2, 3, 1)
        assert dec.shape == (1 + 3 * num_layers, 2, 2, 1)
        assert enc.flags.c_contiguous and dec.flags.c_contiguous
        split = 6 * len(enc)
        for half, offset, n in ((enc, 0, 6), (dec, split, 4)):
            for k, site in enumerate(half):
                draws = blocks[:, offset + k * n:offset + k * n + site.shape[1]]
                assert np.array_equal(site[..., 0], np.where(draws < 0.3, 0.0, 1.0 / 0.7))

    def test_row_count_must_match(self, store, config):
        lengths = (config.encoder_positions, 0)
        blocks = np.zeros((3, M.dropout_draws(config, *lengths)))
        enc, _ = M.dropout_scales(config, blocks, lengths, lengths, 0.3)
        ex = example_for(config, [5, 6, 7], [5])
        with pytest.raises(M.DrawError):
            M.encode(store, config, np.stack([ex.source_ids] * 2),
                     np.stack([ex.source_pad_mask] * 2), enc)

    def test_encode_uses_exactly_its_scales(self, store):
        config = small_config()
        ex = example_for(config, [5, 6, 7], [5])
        n = config.encoder_positions
        for extra in (-1, 1):
            blocks = np.zeros((1, M.dropout_draws(config, n + extra)))
            enc, _ = M.dropout_scales(config, blocks, (n + extra, 0), (n + extra, 0), 0.3)
            with pytest.raises(M.DrawError):
                M.encode(store, config, ex.source_ids[None], ex.source_pad_mask[None], enc)


class TestCutRowDropout:
    """A pass over rows cut to their longest real row, on the scales
    `dropout_scales` builds for the kept positions from full-length draws,
    scales every kept position as a full-length pass does."""

    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("decoder", [False, True], ids=["encoder", "seq2seq"])
    def test_kept_draws_are_the_full_passes_at_real_positions(self, num_layers, decoder,
                                                              monkeypatch):
        config = small_config(num_layers=num_layers)
        store = init_random(config, 0)
        full = _stack([example_for(config, [5, 6, 7], [5, 6]),
                       example_for(config, [8, 9, 5, 6, 7], [7])])
        batch, (s, t) = _cut(full)
        lengths = (config.encoder_positions, config.decoder_positions if decoder else 0)
        kept = (s, t if decoder else 0)
        blocks = np.random.default_rng(num_layers).random(
            (2, M.dropout_draws(config, *lengths)))
        sites = []
        drop_scales = M._drop_scales

        def recording(drop, site, x):
            sites.append((site, drop[site][..., 0]))
            return drop_scales(drop, site, x)

        monkeypatch.setattr(M, "_drop_scales", recording)

        def run(batch, kept):
            sites.clear()
            drop = M.dropout_scales(config, blocks, lengths, kept, 0.3)
            if decoder:
                M.forward_teacher_forced(store, config, batch, drop=drop)
            else:
                M.encode(store, config, batch.source_ids, batch.source_pad_mask, drop[0])
            return list(sites)

        full_sites, cut_sites = run(full, lengths), run(batch, kept)
        enc_sites, dec_sites = 1 + 2 * num_layers, (1 + 3 * num_layers) * decoder
        # every site once, in order: the encoder's, then the decoder's
        assert [k for k, _ in cut_sites] == list(range(enc_sites)) + list(range(dec_sites))
        assert [a.shape[1] for _, a in cut_sites] == [s] * enc_sites + [t] * dec_sites
        assert [k for k, _ in full_sites] == [k for k, _ in cut_sites]
        for (_, cut_site), (_, full_site) in zip(cut_sites, full_sites):
            assert np.array_equal(cut_site, full_site[:, :cut_site.shape[1]])

    def test_short_or_leftover_read_raises(self, store, config):
        full = _stack([example_for(config, [5, 6, 7], [5]),
                       example_for(config, [8, 9, 5, 6], [7])])
        lengths = (config.encoder_positions, 0)
        blocks = np.zeros((2, M.dropout_draws(config, *lengths)))
        enc, _ = M.dropout_scales(config, blocks, lengths, (4, 0), 0.3)
        # scales for 4 positions on a pass over 5 or 3
        for n in (5, 3):
            with pytest.raises(M.DrawError):
                M.encode(store, config, full.source_ids[:, :n], full.source_pad_mask[:, :n],
                         enc)
        # a block one draw short or long of a full-length pass
        for cut in (blocks[:, 1:], np.hstack((blocks, blocks[:, :1]))):
            with pytest.raises(M.DrawError):
                M.dropout_scales(config, cut, lengths, (4, 0), 0.3)

    def test_real_length(self):
        pad = np.array([[False, True, True, True], [False, False, True, True]])
        assert M.real_length(pad) == 2
        assert M.real_length(pad[0]) == 1
        assert M.real_length(np.ones((2, 3), bool)) == 0


class TestGate:
    def test_zero_params_give_half(self, config, store):
        store["gate.weight"].data[:] = 0.0
        store["gate.bias"].data[...] = 0.0
        p = M.gate(store, Tensor(np.ones(config.hidden_size)))
        assert float(p.data) == 0.5

    def test_saturation(self, config, store):
        store["gate.weight"].data[:] = 0.0
        store["gate.bias"].data[...] = 20.0
        p = float(M.gate(store, Tensor(np.zeros(config.hidden_size))).data)
        assert p > 1 - 1e-8

    def test_scalar_oracle(self, config, store):
        d = np.zeros(config.hidden_size)
        d[0] = np.log(3.0)
        store["gate.weight"].data[:] = 0.0
        store["gate.weight"].data[0] = 1.0
        store["gate.bias"].data[...] = 0.0
        p = float(M.gate(store, Tensor(d)).data)
        assert abs(p - 3.0 / 4.0) < 1e-15  # sigmoid(ln 3) = 3/4


class TestMixCopyLogits:
    """`mixed_logits` on a vocab-4 model whose hidden state is its
    generation logits (identity output embedding, zero bias) and whose
    gate is fixed by its bias."""

    def mix(self, gate_bias, gen, copy, ids, pad=None, selected=None):
        cfg = small_config(hidden_size=4, num_heads=1, vocab_size=4)
        store = {"embedding.word": Tensor(np.eye(4)), "output.bias": Tensor(np.zeros(4)),
                 "gate.weight": Tensor(np.zeros(4)), "gate.bias": Tensor(gate_bias)}
        ids = np.array(ids)
        pad = np.zeros(len(ids), bool) if pad is None else np.array(pad)
        z, _, _ = M.mixed_logits(
            store, cfg, Tensor(np.array([gen], dtype=float)),
            Tensor(np.array([copy], dtype=float)),
            *M.copy_inputs(ids, pad, selected, 4))
        return z.data[0]

    def test_pure_generation_limit(self):
        z = self.mix(50.0, [2.0, 0.0, 0.0, 0.0], [1.0, 3.0], [2, 1])
        assert np.array_equal(z, [2.0, 0.0, 0.0, 0.0])

    def test_pure_copy_scatter(self):
        z = self.mix(-50.0, [9.0, 9.0, 9.0, 9.0], [1.0, 3.0], [2, 1])
        assert np.allclose(z, [0.0, 3.0, 1.0, 0.0], rtol=0, atol=1e-15)

    def test_even_mix(self):
        z = self.mix(0.0, [2.0, 0.0, 0.0, 0.0], [1.0, 3.0], [2, 1])
        assert np.array_equal(z, [1.0, 1.5, 0.5, 0.0])

    def test_pad_positions_excluded(self):
        z = self.mix(-50.0, [0.0] * 4, [1.0, 3.0], [2, 1], pad=[False, True])
        assert np.array_equal(z, [0.0, 0.0, 1.0, 0.0])

    def test_selection_mask_applied_to_copy_path_only(self):
        z = self.mix(-50.0, [0.0] * 4, [1.0, 3.0], [2, 1],
                     selected=np.array([True, False]))
        assert np.array_equal(z, [0.0, 3.0 - 10000.0, 1.0, 0.0])

    def test_selected_duplicate_keeps_summed_logit(self):
        # token type 2 appears selected and unselected: its summed copy
        # logit survives; only types with no selected occurrence are masked
        z = self.mix(-50.0, [0.0] * 4, [1.0, 3.0, 2.0], [2, 1, 2],
                     selected=np.array([True, False, False]))
        assert np.array_equal(z, [0.0, 3.0 - 10000.0, 3.0, 0.0])

    def test_vocab_mask_builder(self):
        mask = M.selection_vocab_mask_add(
            np.array([2, 1, 2, 0]), np.array([False, False, False, True]),
            np.array([True, False, False, False]), 4)
        # type 1 unselected -> masked; type 2 selected once -> open;
        # type 0 appears only at a pad position -> untouched
        assert np.array_equal(mask, [0.0, M.NEG_MASK, 0.0, 0.0])

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2 ** 16), st.integers(1, 5), st.integers(1, 9))
    def test_vocab_mask_rows_match_setdiff(self, seed, rows, positions):
        """All rows in one call: each row's mask blocks the types in its
        non-pad positions minus those at its selected ones."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 6, (rows, positions))
        pad = np.arange(positions) >= rng.integers(1, positions + 1, (rows, 1))
        selected = rng.random((rows, positions)) < 0.4
        masks = M.selection_vocab_mask_add(ids, pad, selected, 7)
        assert masks.shape == (rows, 7)
        for r in range(rows):
            want = np.zeros(7)
            want[np.setdiff1d(ids[r][~pad[r]], ids[r][~pad[r] & selected[r]])] = M.NEG_MASK
            assert np.array_equal(masks[r], want)


class TestForwardTeacherForced:
    def test_saturated_gate_matches_copy_disabled(self, config, store):
        """With p_gen saturated at 1 the copy path drops out: the output is
        the softmax of the generation logits, computed here by hand."""
        store["gate.bias"].data[...] = 1e6
        ex = example_for(config, [5, 6], [5, 7])
        probs, cache = M.forward_teacher_forced(store, config, ex)
        assert (cache["p_gen"].data == 1.0).all()
        with ad.no_grad():
            enc = M.encode(store, config, ex.source_ids, ex.source_pad_mask)
            state = M.source_state(store, config, enc, ex.source_ids, ex.source_pad_mask)
            dec_in = np.concatenate(([BOS], ex.target_ids[:-1]))
            d, _ = M.decoder_stack(store, config, state, dec_in)
            manual = ad.softmax(M.generation_logits(store, d), axis=-1)
        assert np.array_equal(probs.data, manual.data)

    def test_deterministic(self, config, store):
        ex = _stack([example_for(config, [5, 6, 7], [5, 7])])
        lengths = (config.encoder_positions, config.decoder_positions)
        n = M.dropout_draws(config, *lengths)
        a, b = (M.forward_teacher_forced(store, config, ex, drop=M.dropout_scales(
            config, np.random.default_rng(3).random((1, n)), lengths, lengths, 0.3))[0]
            for _ in range(2))
        assert np.array_equal(a.data, b.data)

    def test_distributions_normalized(self, config, store):
        ex = example_for(config, [5, 6], [5, 7, 8])
        probs, _ = M.forward_teacher_forced(store, config, ex)
        sums = probs.data.sum(axis=-1)
        assert np.abs(sums - 1.0).max() <= 1e-12

    def test_masks(self):
        pm = M.pad_mask_add(np.array([False, True]))
        assert pm.shape == (1, 1, 2)
        assert pm[0, 0, 0] == 0.0 and pm[0, 0, 1] == M.NEG_MASK
        cm = M.causal_mask_add(3)[0]
        assert cm[0, 1] == M.NEG_MASK and cm[1, 0] == 0.0 and cm[2, 2] == 0.0
