"""The benchmark's contract with the program, checked in the test suite.

perfbench/tracing.py wraps the public functions it names in `TARGETS` on
their modules and on every `from`-import binding; a renamed or removed
function, or one held in a module-level dict, makes every benchmark run
fail.  The benchmark also checks that decoding encodes each source once.
"""

import functools
import importlib.util
import os

import pytest

from stagesum import model as M
from stagesum import search
from stagesum.checkpoint import init_random

from test_model import example_for, small_config
from test_search import count_calls

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
    for src in ([5, 6, 7], [8], [5, 9, 10, 11]):
        ex = example_for(config, src, [5])
        decode(store, config, ex.source_ids, ex.source_pad_mask)
    assert encodes[0] == 3
