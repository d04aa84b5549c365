"""The benchmark's contract with the program, checked in the test suite.

perfbench/tracing.py wraps the public functions it names in `TARGETS` on
their modules and on every `from`-import binding; a renamed or removed
function, or one held in a module-level dict, makes every benchmark run
fail.  The benchmark also checks that decoding encodes each source once
and that training takes one `training.adam_step` per minibatch, and its
decode-step counts rest on greedy stopping when its last row ends.
"""

import dataclasses
import functools
import importlib.util
import os

import numpy as np
import pytest

from stagesum import model as M
from stagesum import search
from stagesum import training
from stagesum.checkpoint import init_random
from stagesum.training import TrainConfig, _stack

from test_model import example_for, small_config
from test_search import count_calls, peaked_store

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_patches_and_restores():
    tracing = load_tracing()

    def passthrough(name, attr, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)
        return wrapper

    before = {name: getattr(M, name) for name in tracing.TARGETS["model"]}
    patcher = tracing.Patcher()
    try:
        patcher.patch(tracing.TARGETS, passthrough)
        assert all(getattr(M, name) is not fn for name, fn in before.items())
    finally:
        patcher.restore()
    assert all(getattr(M, name) is fn for name, fn in before.items())


@pytest.mark.parametrize("decode", [search.greedy_decode, search.beam_decode])
def test_decoding_encodes_each_source_once(decode, monkeypatch):
    config = small_config()
    store = init_random(config, 0)
    encodes = count_calls(monkeypatch, M, "encode")
    sources = ([5, 6, 7], [8], [5, 9, 10, 11])
    for src in sources:
        ex = example_for(config, src, [5])
        decode(store, config, ex.source_ids[None], ex.source_pad_mask[None])
    assert encodes[0] == 3
    # a stacked call encodes each source on its own
    batch = _stack([example_for(config, src, [5]) for src in sources])
    decode(store, config, batch.source_ids, batch.source_pad_mask)
    assert encodes[0] == 6


def finishing_rows():
    """A peaked model and six sources whose greedy decodes end in EOS at
    different steps, all before the length limit."""
    config = small_config(num_layers=2, hidden_size=12, num_heads=2, vocab_size=14,
                          encoder_positions=8, decoder_positions=6)
    store = peaked_store(init_random(config, 2), 1.0)
    rng = np.random.default_rng(2)
    examples = [example_for(config, rng.integers(5, 14, rng.integers(1, 9)), [5])
                for _ in range(6)]
    return config, store, examples


@pytest.mark.parametrize("budget", [None, 1, 2])
def test_stacked_greedy_stops_when_the_last_row_ends(budget, monkeypatch):
    config, store, examples = finishing_rows()
    if budget is not None:
        config = dataclasses.replace(config, decoder_positions=budget + 1)
    batch = _stack(examples)
    steps = count_calls(monkeypatch, M, "decode_step")
    out = search.greedy_decode(store, config, batch.source_ids, batch.source_pad_mask)
    lengths = [len(tokens) for tokens in out]
    if budget is None:
        # the rows end in EOS at different steps, all before the limit
        assert len(set(lengths)) > 1 and max(lengths) < config.decoder_positions - 1
    assert steps[0] == min(config.decoder_positions - 1, max(lengths) + 1)


@pytest.mark.parametrize("stage", ["summarize", "denoise"])
def test_one_adam_step_per_minibatch_with_a_loss(stage, monkeypatch):
    """train_stage calls `training.adam_step` (the binding the benchmark
    wraps) once per minibatch whose loss has terms, and skips the others:
    one-token denoise batches often mask nothing."""
    config = small_config()
    rng = np.random.default_rng(0)
    data = [example_for(config, rng.integers(5, 12, 1 if stage == "denoise" else 4), [5])
            for _ in range(9)]
    steps = count_calls(monkeypatch, training, "adam_step")
    losses = []
    loss_fn = training._LOSS_FNS[stage]

    def counted(*args):
        loss, n = loss_fn(*args)
        losses.append(n)
        return loss, n

    monkeypatch.setitem(training._LOSS_FNS, stage, counted)
    init = init_random(config, 0, arch="mlm_encoder" if stage == "denoise" else "seq2seq")
    training.train_stage(init, config, data, [],
                         TrainConfig(lr=1e-3, dropout=0.1, batch_size=2, max_epochs=3),
                         stage=stage)
    assert len(losses) == 3 * 5
    assert steps[0] == sum(n > 0 for n in losses)
    if stage == "summarize":
        assert steps[0] == 3 * 5
    else:
        assert 0 < steps[0] < 3 * 5
