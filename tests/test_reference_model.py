"""The model against `reference_model`, the same model written from unfused
primitives: every stage loss, every distribution and every parameter
gradient bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_model as R
from stagesum import autodiff as ad
from stagesum import model as M
from stagesum import training
from stagesum.checkpoint import init_random

from test_model import row_cases

ARCH = {"denoise": "mlm_encoder", "summarize": "seq2seq", "select": "selector"}


def perturbed(store, seed):
    """store with every parameter moved off its initial value, so that no
    bias or gain gradient meets a zero or a one."""
    store.flat += np.random.default_rng(seed).normal(0.0, 0.1, store.flat.shape)
    return store


@st.composite
def stage_cases(draw):
    """A stage kind and `row_cases`' draws (1-3 layers, 1-4 heads, 1-4 rows
    with ragged pads, dropout on or off), on a `perturbed` store of the
    stage's architecture."""
    stage = draw(st.sampled_from(sorted(ARCH)))
    config, _, examples, _, seed, rate = draw(row_cases())
    rng = np.random.default_rng(seed)
    items = ([(ex, rng.integers(0, 2, int((~ex.source_pad_mask).sum()))) for ex in examples]
             if stage == "select" else examples)
    store = perturbed(init_random(config, seed, arch=ARCH[stage]), seed + 1)
    return stage, config, store, items, seed, rate


def grads_of(store):
    return {name: store[name].grad.copy() for name in store}


def stage_loss(loss_fn, store, config, items, seed, rate):
    """(loss, count, every parameter's gradient) of one minibatch, with one
    generator for masking and dropout, as train_stage runs it."""
    store.zero_grads()
    with ad.new_tape():
        loss, n = loss_fn(store, config, items, np.random.default_rng(seed), rate)
        if n:
            (loss / n).backward()
    return loss.data, n, grads_of(store)


def teacher_forced(forward, store, config, examples, selected, seed, rate):
    """The distributions of a teacher-forced pass over the stacked examples
    and every parameter's gradient of their mean target NLL."""
    batch = training._stack(examples)
    lengths = (batch.source_ids.shape[-1], batch.target_ids.shape[-1])
    drop = training._row_draws(np.random.default_rng(seed), rate, config, len(examples),
                               lengths, lengths)
    store.zero_grads()
    with ad.new_tape():
        probs = forward(store, config, batch, selected, drop)
        training.mle_loss(probs, batch.target_ids, batch.target_pad_mask)[0].backward()
    return probs.data, grads_of(store)


def model_forward(store, config, batch, selected, drop):
    return M.forward_teacher_forced(store, config, batch, selected, drop)[0]


def assert_same_grads(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def stage_losses_match(case):
    stage, config, store, items, seed, rate = case
    loss, n, grads = stage_loss(training._LOSS_FNS[stage], store, config, items, seed, rate)
    ref_loss, ref_n, ref_grads = stage_loss(R.LOSS_FNS[stage], store, config, items, seed,
                                            rate)
    assert n == ref_n
    assert np.array_equal(loss, ref_loss)
    assert_same_grads(grads, ref_grads)


def teacher_forced_matches(case):
    """`row_cases`' draws, selection on or off included."""
    config, store, examples, selected, seed, rate = case
    store = perturbed(store, seed + 1)
    probs, grads = teacher_forced(model_forward, store, config, examples, selected, seed,
                                  rate)
    ref_probs, ref_grads = teacher_forced(R.forward_teacher_forced, store, config, examples,
                                          selected, seed, rate)
    assert np.array_equal(probs, ref_probs)
    assert_same_grads(grads, ref_grads)


class TestAgainstReference:
    @settings(deadline=None, max_examples=60)
    @given(stage_cases())
    def test_stage_losses(self, case):
        stage_losses_match(case)

    @settings(deadline=None, max_examples=40)
    @given(row_cases())
    def test_forward_teacher_forced(self, case):
        teacher_forced_matches(case)


@pytest.mark.usefixtures("one_row_attention_blocks")
class TestAgainstReferenceOneRowBlocks:
    """The same, with `ad.attention` working one leading row at a time."""

    @settings(deadline=None, max_examples=30)
    @given(stage_cases())
    def test_stage_losses(self, case):
        stage_losses_match(case)

    @settings(deadline=None, max_examples=20)
    @given(row_cases())
    def test_forward_teacher_forced(self, case):
        teacher_forced_matches(case)
