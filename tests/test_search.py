"""Decoding tests: greedy, beam search, length penalty, exhaustive oracle."""

import dataclasses
import itertools
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from stagesum import autodiff as ad
from stagesum import model as M
from stagesum import search
from stagesum.checkpoint import init_random
from stagesum.search import beam_decode, greedy_decode, length_penalty
from stagesum.tokenizer import BOS, EOS
from stagesum.training import _stack

from test_model import decode_cases, example_for, row_cases, small_config, start


def step_log_probs(store, config, state, token):
    """Next-token log-probs of a one-source, one-row state fed `token`."""
    return search._log_probs(M.decode_step(store, config, state, [[token]]).mixed_logits)[0, 0]


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
            [b] = beam_decode(store, config, ex.source_ids[None], ex.source_pad_mask[None],
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
        [out] = beam_decode(store, config, ex.source_ids[None], ex.source_pad_mask[None])
        assert len(out) == config.decoder_positions - 1

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_logits_raise(self, bad):
        """A diverged model (an infinite or NaN output bias) fails by name
        instead of decoding token 0 from a row of NaN log-probabilities."""
        config = small_config()
        store = init_random(config, 0)
        store["output.bias"].data[7] = bad
        ex = example_for(config, [5, 6], [5])
        for decode in (greedy_decode, beam_decode):
            with pytest.raises(ad.NumericError):
                decode(store, config, ex.source_ids[None], ex.source_pad_mask[None])
        with pytest.raises(ad.NumericError):
            search._log_probs(np.array([[0.0, 1.0], [np.inf, 0.0]]))
        assert np.isfinite(search._log_probs(np.array([[0.0, -np.inf, 1.0]]))[0, [0, 2]]).all()

    def test_zero_max_len_decodes_nothing(self, monkeypatch):
        config = dataclasses.replace(small_config(), decoder_positions=1)
        store = init_random(small_config(), 0)
        store["output.bias"].data[EOS] = -1e9
        ex = example_for(config, [5, 6], [5])
        steps = count_calls(monkeypatch, M, "decode_step")
        assert greedy_decode(store, config, ex.source_ids[None],
                             ex.source_pad_mask[None]) == [[]]
        assert beam_decode(store, config, ex.source_ids[None],
                           ex.source_pad_mask[None]) == [[]]
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
            beam_decode(store, config, ex.source_ids[None], ex.source_pad_mask[None],
                        beam_width=0)

    def seq_score(self, store, config, ex, tokens, alpha):
        """Penalized score of tokens + EOS under the model."""
        with ad.no_grad():
            state = start(store, config, ex)
            fed = BOS
            total = 0.0
            for tok in list(tokens) + [EOS]:
                lp = step_log_probs(store, config, state, fed)
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
                [a] = beam_decode(store, short, ex.source_ids[None],
                                  ex.source_pad_mask[None], beam_width=width, alpha=0.6)
                [b] = beam_decode(store, short, ex.source_ids[None],
                                  ex.source_pad_mask[None], beam_width=width, alpha=0.6)
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
            [b] = beam_decode(store, short, ex.source_ids[None], ex.source_pad_mask[None],
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
            [out] = beam_decode(store, short, ex.source_ids[None], ex.source_pad_mask[None],
                                beam_width=len(non_eos) ** (steps - 1), alpha=0.6)
            assert out == best_tokens, seed


@dataclass
class Hypothesis:
    tokens: list[int] = field(default_factory=list)   # emitted ids, BOS excluded
    log_prob: float = 0.0

    def penalized(self, alpha: float) -> float:
        return self.log_prob / length_penalty(max(len(self.tokens), 1), alpha)


def per_source_beam(store, config, ex, selected, beam_width, alpha):
    """Beam search over one source, one hypothesis at a time, with the early
    stop: the oracle for the batched `beam_decode`.  Returns (tokens, decode
    steps run)."""
    steps = config.decoder_positions - 1
    largest_penalty = max(length_penalty(1, alpha), length_penalty(steps, alpha))
    with ad.no_grad():
        state = start(store, config, ex, selected)
        beam = [Hypothesis()]
        finished = []
        best = -np.inf
        ran = 0
        for _ in range(steps):
            tokens = [hyp.tokens[-1] if hyp.tokens else BOS for hyp in beam]
            lp = search._log_probs(M.decode_step(store, config, state,
                                                 [tokens]).mixed_logits)[0]
            ran += 1
            candidates = []
            for row, hyp in enumerate(beam):
                for tok in np.argsort(-lp[row], kind="stable")[: beam_width + 1]:
                    tok = int(tok)
                    log_prob = hyp.log_prob + float(lp[row, tok])
                    if tok == EOS:
                        done = Hypothesis(list(hyp.tokens), log_prob)
                        finished.append(done)
                        best = max(best, done.penalized(alpha))
                    else:
                        candidates.append((Hypothesis(hyp.tokens + [tok], log_prob), row))
            if not candidates:
                break
            candidates.sort(key=lambda c: -c[0].log_prob)
            kept = candidates[:beam_width]
            beam = [hyp for hyp, _ in kept]
            state.reorder([True], [[row for _, row in kept]])
            if best >= max(hyp.log_prob for hyp in beam) / largest_penalty:
                break
    if finished:
        return max(finished, key=lambda h: h.penalized(alpha)).tokens, ran
    return max(beam, key=lambda h: h.penalized(alpha)).tokens, ran


def reference_beam(steps, beam_width, alpha, log_probs):
    """The beam loop without early stopping, one hypothesis at a time, over
    `steps` steps: log_probs(prefix tokens) gives the next-token
    log-probabilities."""
    beam = [Hypothesis()]
    finished = []
    for _ in range(steps):
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


class ToyState:
    """A stand-in decode state: per source, the prefixes its rows were fed."""

    def __init__(self, sources):
        self.sources = list(sources)
        self.fed = [[()] for _ in self.sources]     # BOS first

    def reorder(self, keep, rows):
        kept = np.flatnonzero(keep)
        rows = np.broadcast_to(rows, (len(kept), np.shape(rows)[-1]))
        self.sources = [self.sources[i] for i in kept]
        self.fed = [[self.fed[i][r] for r in row] for i, row in zip(kept, rows)]


def toy_beam(config, sources, logits, beam_width, alpha):
    """beam_decode over `sources` stand-in sources whose decoder gives the
    next-token logits logits(source, prefix)."""
    def toy_step(store, config, state, tokens):
        state.fed = [[f + (int(t),) for f, t in zip(fed, row)]
                     for fed, row in zip(state.fed, tokens)]
        return SimpleNamespace(mixed_logits=np.array(
            [[logits(src, f[1:]) for f in fed] for src, fed in zip(state.sources, state.fed)]))

    ids = np.arange(sources)[:, None]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(M, "start_decode",
                   lambda store, config, ids, pad, selected: ToyState(ids[:, 0]))
        mp.setattr(M, "decode_step", toy_step)
        return beam_decode(None, config, ids, ids < 0, beam_width=beam_width, alpha=alpha)


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
                [got] = beam_decode(store, config, ex.source_ids[None],
                                    ex.source_pad_mask[None],
                                    None if selected is None else selected[None],
                                    beam_width=width, alpha=alpha)
                assert got == reference_beam(config.decoder_positions - 1, width,
                                             alpha, log_probs), (width, alpha)

    @settings(deadline=None, max_examples=150)
    # each side of the bound: a stop too early at alpha < 0 without lp(1),
    # and at alpha > 0 without lp(steps)
    @example(vocab=5, seed=344, scale=1.0, eos_offset=1.375, steps=3, sources=3)
    @example(vocab=5, seed=832, scale=1.0, eos_offset=1.0, steps=5, sources=3)
    @given(st.integers(5, 9), st.integers(0, 2 ** 16), st.floats(0.3, 4.0),
           st.floats(-2.0, 2.0), st.integers(0, 6), st.integers(1, 4))
    def test_stopping_rule_on_toy_decoder(self, vocab, seed, scale, eos_offset,
                                          steps, sources):
        """Beam logic alone, against the loop that never stops early, on a
        stand-in decoder whose next-token logits are a random function of
        the source and the prefix: finished and live hypotheses compete at
        every length up to a budget of `steps` tokens, and the sources of
        one batch stop at different steps."""
        config = small_config(vocab_size=vocab, decoder_positions=steps + 1)

        def logits(source, prefix):
            # sharper with every step, as a trained decoder grows confident
            z = np.random.default_rng([seed + source, *prefix]).normal(size=vocab)
            z *= scale * (1 + len(prefix))
            z[EOS] += eos_offset
            return z

        for width in (1, 2, 4):
            for alpha in (0.0, 0.6, -0.5):
                got = toy_beam(config, sources, logits, width, alpha)
                want = [reference_beam(
                    steps, width, alpha,
                    lambda prefix: search._log_probs(logits(source, prefix)))
                    for source in range(sources)]
                assert got == want, (width, alpha)

    @pytest.mark.parametrize("sources", [1, 3])
    def test_ties_go_to_the_earliest(self, sources):
        """Exact ties: among live candidates the earlier proposal stays, and
        among finished hypotheses the earlier one wins."""
        config = small_config(vocab_size=9, decoder_positions=5)

        def flat(source, prefix):
            # every token but EOS equally likely: every candidate ties
            z = np.zeros(config.vocab_size)
            z[EOS] = -1e4
            return z

        def sure(source, prefix):
            # token 5 has log-prob 0 exactly: every finished hypothesis ties
            z = np.full(config.vocab_size, -1e4)
            z[5] = 0.0
            return z

        assert toy_beam(config, sources, flat, 4, 0.0) == [[0, 0, 0, 0]] * sources
        assert toy_beam(config, sources, sure, 4, 0.0) == [[]] * sources

    def test_forced_eos_stops_after_one_step(self, monkeypatch):
        config = small_config()
        store = init_random(config, 0)
        store["output.bias"].data[EOS] = 1e9
        batch = _stack([example_for(config, src, [5]) for src in ([5, 6], [7])])
        steps = count_calls(monkeypatch, M, "decode_step")
        for width in (1, 2, 4):
            for alpha in (0.0, 0.6, -0.5):
                steps[0] = 0
                assert beam_decode(store, config, batch.source_ids, batch.source_pad_mask,
                                   beam_width=width, alpha=alpha) == [[], []]
                assert steps[0] == 1, (width, alpha)


class TestBeamBatch:
    @settings(deadline=None, max_examples=30)
    @given(row_cases(max_rows=6), st.floats(0.5, 1.5))
    def test_matches_per_source_beam(self, case, eos_bias):
        """One batched search over ragged sources, with or without selection,
        gives each source the tokens the per-source search gives, at
        widths 1, 2 and 4 and at a width beyond the vocabulary."""
        config, store, examples, selected, _, _ = case
        store = peaked_store(store, eos_bias)
        batch = _stack(examples)
        spread = 0      # the most distinct stop steps among one search's sources
        for width in (1, 2, 4, config.vocab_size + 2):
            for alpha in (0.0, 0.6, -0.5):
                got = beam_decode(store, config, batch.source_ids, batch.source_pad_mask,
                                  selected, beam_width=width, alpha=alpha)
                want = [per_source_beam(store, config, ex,
                                        None if selected is None else selected[r],
                                        width, alpha)
                        for r, ex in enumerate(examples)]
                spread = max(spread, len({ran for _, ran in want}))
                assert got == [tokens for tokens, _ in want], (width, alpha)
        # steer generation toward sources that stop at different steps
        target(float(spread))


class TestHypothesis:
    def test_penalized_uses_min_length_one(self):
        """An empty summary is scored at length 1: its EOS log-prob, log 0.4,
        beats log(0.6 * 0.62) for one token, though at length 0 its
        penalty (5/6) ** 0.6 would make it lose."""
        config = small_config(vocab_size=6, decoder_positions=4)

        def logits(source, prefix):
            p = np.full(config.vocab_size, 1e-9)
            if prefix:
                p[[EOS, 5]] = 0.62, 0.38
            else:
                p[[EOS, 5]] = 0.4, 0.6
            return np.log(p)

        assert toy_beam(config, 1, logits, 2, 0.6) == [[]]

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
                lp = step_log_probs(store, config, state, fed)
                tok = int(np.argmax(lp))
                total += float(lp[tok])
                assert total <= prev + 1e-12
                prev = total
                if tok == EOS:
                    break
                fed = tok
