"""Decoding tests: greedy, beam search, length penalty, exhaustive oracle."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from stagesum import autodiff as ad
from stagesum import model as M
from stagesum import search
from stagesum.checkpoint import init_random
from stagesum.search import (Hypothesis, beam_decode, greedy_decode,
                             length_penalty)
from stagesum.tokenizer import BOS, EOS
from stagesum.training import _stack

from test_model import decode_cases, example_for, row_cases, small_config, start


def step_log_probs(store, config, state, tokens):
    return search._log_probs(M.decode_step(store, config, state, tokens).mixed_logits)


def count_calls(monkeypatch, module, name):
    """Count calls of module.name from now on; returns a one-item list."""
    calls = [0]
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestLengthPenalty:
    def test_unit_at_length_one(self):
        assert length_penalty(1, 0.6) == 1.0
        assert length_penalty(1, 0.0) == 1.0

    def test_length_seven(self):
        assert abs(length_penalty(7, 0.6) - 2 ** 0.6) < 1e-12

    def test_alpha_zero_is_flat(self):
        for L in (1, 5, 12):
            assert length_penalty(L, 0.0) == 1.0


def scaled_store(config, seed, scale=20.0):
    """Random model with inflated output weights so decodes vary by seed."""
    store = init_random(config, seed)
    store["embedding.word"].data *= scale
    store["gate.bias"].data[...] = 2.0  # mostly generation
    return store


class TestGreedy:
    def test_beam_width_one_alpha_zero_equals_greedy(self):
        config = small_config()
        for seed in range(5):
            store = scaled_store(config, seed)
            ex = example_for(config, [5, 6, 7], [5])
            [g] = greedy_decode(store, config, ex.source_ids[None],
                                ex.source_pad_mask[None])
            b = beam_decode(store, config, ex.source_ids, ex.source_pad_mask,
                            beam_width=1, alpha=0.0)
            assert g == b, seed

    def test_max_len_truncation(self):
        config = small_config()
        store = init_random(config, 0)
        # suppress EOS so decoding must run to the limit
        store["output.bias"].data[EOS] = -1e9
        ex = example_for(config, [5, 6], [5])
        # the config, not the store's longer position table, sets the budget
        short = dataclasses.replace(config, decoder_positions=4)
        [out] = greedy_decode(store, short, ex.source_ids[None], ex.source_pad_mask[None])
        assert len(out) == 3

    def test_immediate_eos_gives_empty(self):
        config = small_config()
        store = init_random(config, 0)
        store["output.bias"].data[EOS] = 1e9
        ex = example_for(config, [5, 6], [5])
        assert greedy_decode(store, config, ex.source_ids[None],
                             ex.source_pad_mask[None]) == [[]]

    def test_runs_to_the_position_limit(self):
        """With EOS suppressed, both searches decode decoder_positions - 1
        tokens, the longest summary a target with its EOS has room for."""
        config = small_config()
        store = init_random(config, 0)
        store["output.bias"].data[EOS] = -1e9
        ex = example_for(config, [5], [5])
        [out] = greedy_decode(store, config, ex.source_ids[None], ex.source_pad_mask[None])
        assert len(out) == config.decoder_positions - 1
        out = beam_decode(store, config, ex.source_ids, ex.source_pad_mask)
        assert len(out) == config.decoder_positions - 1

    def test_zero_max_len_decodes_nothing(self, monkeypatch):
        config = dataclasses.replace(small_config(), decoder_positions=1)
        store = init_random(small_config(), 0)
        store["output.bias"].data[EOS] = -1e9
        ex = example_for(config, [5, 6], [5])
        steps = count_calls(monkeypatch, M, "decode_step")
        assert greedy_decode(store, config, ex.source_ids[None],
                             ex.source_pad_mask[None]) == [[]]
        assert beam_decode(store, config, ex.source_ids, ex.source_pad_mask) == []
        assert steps[0] == 0


def peaked_store(store, eos_bias):
    """Sharpen a random model so that greedy decodes vary from source to
    source, and raise EOS by eos_bias so that rows finish at different
    steps."""
    for name, param in store.params.items():
        if name.endswith("weight") or name.startswith("embedding."):
            param.data *= 10.0
    store["output.bias"].data[EOS] += eos_bias
    return store


class TestGreedyBatch:
    @settings(deadline=None, max_examples=40)
    @given(row_cases(max_rows=6), st.floats(0.5, 1.5), st.sampled_from([None, 4]))
    def test_stacked_rows_match_per_row_calls(self, case, eos_bias, positions):
        """Every row decodes as it does alone, at the config's position
        limit and with a decoder limit below the position table's."""
        config, store, examples, selected, _, _ = case
        if positions is not None:
            config = dataclasses.replace(config, decoder_positions=positions)
        store = peaked_store(store, eos_bias)
        batch = _stack(examples)
        got = greedy_decode(store, config, batch.source_ids, batch.source_pad_mask,
                            selected)
        # steer generation toward rows that finish at different steps
        target(float(len({len(tokens) for tokens in got})))
        assert got == [greedy_decode(store, config, ex.source_ids[None],
                                     ex.source_pad_mask[None],
                                     None if selected is None else selected[r:r + 1])[0]
                       for r, ex in enumerate(examples)]


class TestBeam:
    def test_invalid_width(self):
        config = small_config()
        store = init_random(config, 0)
        ex = example_for(config, [5], [5])
        with pytest.raises(ValueError):
            beam_decode(store, config, ex.source_ids, ex.source_pad_mask,
                        beam_width=0)

    def seq_score(self, store, config, ex, tokens, alpha):
        """Penalized score of tokens + EOS under the model."""
        with ad.no_grad():
            state = start(store, config, ex)
            fed = BOS
            total = 0.0
            for tok in list(tokens) + [EOS]:
                lp = step_log_probs(store, config, state, [fed])[0]
                total += float(lp[tok])
                fed = tok
        return total / length_penalty(max(len(tokens), 1), alpha)

    def test_deterministic_across_calls(self):
        config = small_config()
        short = dataclasses.replace(config, decoder_positions=5)
        for seed in range(8):
            store = scaled_store(config, seed + 100)
            ex = example_for(config, [5, 6, 7], [5])
            for width in (1, 2, 4):
                a = beam_decode(store, short, ex.source_ids,
                                ex.source_pad_mask, beam_width=width, alpha=0.6)
                b = beam_decode(store, short, ex.source_ids,
                                ex.source_pad_mask, beam_width=width, alpha=0.6)
                assert a == b, (seed, width)
                assert len(a) <= 4

    def test_full_width_beam_at_least_greedy(self):
        # an unpruned beam explores every prefix, so it must match or beat
        # greedy; narrow beams carry no such guarantee under length penalty
        config = small_config(vocab_size=6, hidden_size=8, num_heads=2,
                              ffn_size=16, encoder_positions=6,
                              decoder_positions=6)
        short = dataclasses.replace(config, decoder_positions=5)
        for seed in range(5):
            store = scaled_store(config, seed + 50, scale=12.0)
            ex = example_for(config, [5, 4, 3], [5])
            [g] = greedy_decode(store, short, ex.source_ids[None], ex.source_pad_mask[None])
            b = beam_decode(store, short, ex.source_ids, ex.source_pad_mask,
                            beam_width=5 ** 3, alpha=0.6)
            assert (self.seq_score(store, config, ex, b, 0.6)
                    >= self.seq_score(store, config, ex, g, 0.6) - 1e-9)

    def test_exhaustive_oracle_vocab6(self):
        config = small_config(vocab_size=6, hidden_size=8, num_heads=2,
                              ffn_size=16, encoder_positions=6,
                              decoder_positions=6)
        steps = 4
        short = dataclasses.replace(config, decoder_positions=steps + 1)
        for seed in range(3):
            store = scaled_store(config, seed + 7, scale=12.0)
            ex = example_for(config, [5, 4], [5])
            non_eos = [t for t in range(config.vocab_size) if t != EOS]
            best_score, best_tokens = -np.inf, None
            # all finished sequences reachable within `steps` decode steps
            for L in range(steps):
                for tokens in itertools.product(non_eos, repeat=L):
                    s = self.seq_score(store, config, ex, tokens, 0.6)
                    if s > best_score + 1e-12:
                        best_score, best_tokens = s, list(tokens)
            out = beam_decode(store, short, ex.source_ids, ex.source_pad_mask,
                              beam_width=len(non_eos) ** (steps - 1), alpha=0.6)
            assert out == best_tokens, seed


def reference_beam(store, config, ex, selected, beam_width, alpha, log_probs):
    """The beam loop without early stopping, one hypothesis at a time, over
    config.decoder_positions - 1 steps: log_probs(prefix tokens) gives the
    next-token log-probabilities."""
    beam = [Hypothesis()]
    finished = []
    for _ in range(config.decoder_positions - 1):
        candidates = []
        for hyp in beam:
            lp = log_probs(tuple(hyp.tokens))
            order = np.argsort(-lp, kind="stable")[: beam_width + 1]
            for tok in order:
                tok = int(tok)
                new = Hypothesis(hyp.tokens + ([] if tok == EOS else [tok]),
                                 hyp.log_prob + float(lp[tok]))
                if tok == EOS:
                    finished.append(new)
                else:
                    candidates.append(new)
        if not candidates:
            break
        candidates.sort(key=lambda h: -h.log_prob)
        beam = candidates[:beam_width]
    if finished:
        return max(finished, key=lambda h: h.penalized(alpha)).tokens
    return max(beam, key=lambda h: h.penalized(alpha)).tokens


class TestBeamReference:
    @settings(deadline=None, max_examples=25)
    @given(decode_cases())
    def test_same_tokens_as_teacher_forced_loop(self, case):
        config, store, ex, selected, _ = case
        store["embedding.word"].data *= 12.0
        source = ex.source_ids[~ex.source_pad_mask]
        memo = {}

        def log_probs(prefix):
            if prefix not in memo:
                target = example_for(config, source, list(prefix) + [EOS])
                with ad.no_grad():
                    _, cache = M.forward_teacher_forced(store, config, target,
                                                        selected)
                z = cache["mixed_logits"].data[len(prefix)][None, :]
                memo[prefix] = search._log_probs(z)[0]
            return memo[prefix]

        for width in (1, 2, 4):
            for alpha in (0.0, 0.6, -0.5):
                got = beam_decode(store, config, ex.source_ids, ex.source_pad_mask,
                                  selected, beam_width=width, alpha=alpha)
                assert got == reference_beam(store, config, ex, selected, width,
                                             alpha, log_probs), (width, alpha)

    @settings(deadline=None, max_examples=150)
    # each side of the bound: a stop too early at alpha < 0 without lp(1),
    # and at alpha > 0 without lp(steps)
    @example(vocab=5, seed=344, scale=1.0, eos_offset=1.375, steps=3)
    @example(vocab=5, seed=832, scale=1.0, eos_offset=1.0, steps=5)
    @given(st.integers(5, 9), st.integers(0, 2 ** 16), st.floats(0.3, 4.0),
           st.floats(-2.0, 2.0), st.integers(0, 6))
    def test_stopping_rule_on_toy_decoder(self, vocab, seed, scale, eos_offset,
                                          steps):
        """Beam logic alone, against the loop that never stops early, on a
        stand-in decoder whose next-token logits are a random function of
        the prefix: finished and live hypotheses compete at every length
        up to a budget of `steps` tokens."""
        config = small_config(vocab_size=vocab, decoder_positions=steps + 1)

        def logits(prefix):
            # sharper with every step, as a trained decoder grows confident
            z = np.random.default_rng([seed, *prefix]).normal(size=vocab)
            z *= scale * (1 + len(prefix))
            z[EOS] += eos_offset
            return z

        class ToyState:
            fed = [()]      # tokens fed to each row, BOS first

            def reorder(self, rows):
                self.fed = [self.fed[r] for r in rows]

        def toy_step(store, config, state, tokens):
            if len(state.fed) == 1:
                state.fed = state.fed * len(tokens)
            state.fed = [f + (t,) for f, t in zip(state.fed, tokens)]
            return SimpleNamespace(mixed_logits=np.stack(
                [logits(f[1:]) for f in state.fed]))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "encode", lambda *args: None)
            mp.setattr(M, "start_decode", lambda *args: ToyState())
            mp.setattr(M, "decode_step", toy_step)
            for width in (1, 2, 4):
                for alpha in (0.0, 0.6, -0.5):
                    got = beam_decode(None, config, None, None, beam_width=width,
                                      alpha=alpha)
                    want = reference_beam(
                        None, config, None, None, width, alpha,
                        lambda prefix: search._log_probs(logits(prefix)[None])[0])
                    assert got == want, (width, alpha)

    def test_forced_eos_stops_after_one_step(self, monkeypatch):
        config = small_config()
        store = init_random(config, 0)
        store["output.bias"].data[EOS] = 1e9
        ex = example_for(config, [5, 6], [5])
        steps = count_calls(monkeypatch, M, "decode_step")
        for width in (1, 2, 4):
            for alpha in (0.0, 0.6, -0.5):
                steps[0] = 0
                assert beam_decode(store, config, ex.source_ids, ex.source_pad_mask,
                                   beam_width=width, alpha=alpha) == []
                assert steps[0] == 1, (width, alpha)


class TestHypothesis:
    def test_penalized_uses_min_length_one(self):
        h = Hypothesis(tokens=[], log_prob=-2.0)
        assert h.penalized(0.6) == -2.0

    def test_log_prob_nonincreasing(self):
        config = small_config()
        store = scaled_store(config, 1)
        ex = example_for(config, [5, 6], [5])
        with ad.no_grad():
            state = start(store, config, ex)
            fed = BOS
            total = 0.0
            prev = 0.0
            for _ in range(4):
                lp = step_log_probs(store, config, state, [fed])[0]
                tok = int(np.argmax(lp))
                total += float(lp[tok])
                assert total <= prev + 1e-12
                prev = total
                if tok == EOS:
                    break
                fed = tok
