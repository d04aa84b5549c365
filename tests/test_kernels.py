"""Kernel tests against independent oracles."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stagesum import kernels


def brute_lcs(a: tuple, b: tuple) -> int:
    """Independent LCS oracle: memoized recursion (not the DP kernel)."""

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


class TestLcs:
    def test_basic(self):
        assert kernels.lcs_length([1, 2, 3], [1, 3]) == 2
        assert kernels.lcs_length([1, 2], [3, 4]) == 0
        assert kernels.lcs_length([], [1]) == 0
        assert kernels.lcs_length([5, 5, 5], [5, 5]) == 2

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(0, 3), max_size=10),
           st.lists(st.integers(0, 3), max_size=10))
    def test_matches_brute_force(self, a, b):
        assert kernels.lcs_length(a, b) == brute_lcs(tuple(a), tuple(b))


class TestScatterCopy:
    def test_pad_excluded_and_duplicates_sum(self):
        att = np.array([[1.0, 3.0, 7.0]])
        ids = np.array([2, 2, -1])
        out = kernels.scatter_copy_forward(att, ids, 4)
        assert np.array_equal(out, [[0.0, 0.0, 4.0, 0.0]])

    def test_forward_oracle(self, rng):
        # dense one-hot matrix product as the oracle
        for _ in range(20):
            n_src, vocab = 7, 9
            att = rng.normal(size=(3, n_src))
            ids = rng.integers(-1, vocab, size=n_src)
            onehot = np.zeros((n_src, vocab))
            for s, tok in enumerate(ids):
                if tok >= 0:
                    onehot[s, tok] = 1.0
            assert np.allclose(kernels.scatter_copy_forward(att, ids, vocab),
                               att @ onehot)

    def test_backward_oracle(self, rng):
        for _ in range(20):
            n_src, vocab = 6, 8
            ids = rng.integers(-1, vocab, size=n_src)
            d_out = rng.normal(size=(2, vocab))
            onehot = np.zeros((n_src, vocab))
            for s, tok in enumerate(ids):
                if tok >= 0:
                    onehot[s, tok] = 1.0
            assert np.allclose(kernels.scatter_copy_backward(d_out, ids, n_src),
                               d_out @ onehot.T)


    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 9), st.integers(2, 9),
           st.integers(0, 2 ** 16))
    def test_rows_equal_one_row_calls(self, rows, steps, n_src, vocab, seed):
        # a [rows, ...] call is byte-identical to one call per row, with
        # duplicate ids and pads (-1) in every row
        rng = np.random.default_rng(seed)
        att = rng.normal(size=(rows, steps, n_src))
        ids = rng.integers(-1, min(vocab, 3), size=(rows, n_src))
        d_out = rng.normal(size=(rows, steps, vocab))
        out = kernels.scatter_copy_forward(att, ids, vocab)
        d_att = kernels.scatter_copy_backward(d_out, ids, n_src)
        for r in range(rows):
            assert (out[r].tobytes()
                    == kernels.scatter_copy_forward(att[r], ids[r], vocab).tobytes())
            assert (d_att[r].tobytes()
                    == kernels.scatter_copy_backward(d_out[r], ids[r], n_src).tobytes())
