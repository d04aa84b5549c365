"""Tensor-core tests: op semantics and gradients against finite differences."""

import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_model as R
from stagesum import autodiff as ad
from stagesum import model as M
from stagesum import training
from stagesum.autodiff import Tensor
from stagesum.checkpoint import ParamStore, init_random

from conftest import assert_grad_matches, grad_of, saved_arrays
from test_model import example_for


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(R.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_dot_product(self):
        out = R.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            R.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_grad_sum_ab(self):
        # d/dA sum(A B) = 1 B^T; hand value for B = 2I is all twos
        a = np.ones((2, 2))
        b = Tensor([[2.0, 0.0], [0.0, 2.0]])
        analytic = grad_of(lambda t: R.matmul(t, b).sum(), a)
        assert np.allclose(analytic, np.full((2, 2), 2.0))
        assert_grad_matches(lambda t: R.matmul(t, b).sum(), a)

    def test_grad_wrt_right_operand(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert_grad_matches(lambda t: R.matmul(a, t).sum(),
                            np.linspace(-1, 1, 12).reshape(3, 4))

    def test_grad_batched(self, rng):
        a = rng.normal(size=(3, 2, 4))
        b = Tensor(rng.normal(size=(3, 4, 5)))
        assert_grad_matches(lambda t: (R.matmul(t, b) * Tensor(np.ones((3, 2, 5)))).sum(), a)
        # one operand stacked, the other not: its gradient sums over the batch axis
        for a_shape, b_shape in [((3, 2, 4), (4, 5)), ((2, 4), (3, 4, 5)),
                                 ((3, 2, 4), (4,)), ((4,), (3, 4, 5))]:
            a = rng.normal(size=a_shape)
            b = rng.normal(size=b_shape)
            w = Tensor(rng.normal(size=np.matmul(a, b).shape))
            assert_grad_matches(lambda t: (R.matmul(t, Tensor(b)) * w).sum(), a)
            assert_grad_matches(lambda t: (R.matmul(Tensor(a), t) * w).sum(), b)

    def test_grad_matrix_vector(self, rng):
        m = Tensor(rng.normal(size=(3, 4)))
        assert_grad_matches(lambda t: R.matmul(m, t).sum(), rng.normal(size=4))


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_sentinel_suppression(self):
        out = ad.softmax(Tensor([0.0, -10000.0])).data
        # exp(-10000) underflows to exactly 0 in float64
        assert out[0] == 1.0
        assert out[1] < 1e-40

    def test_two_values(self):
        out = ad.softmax(Tensor([1.0, 2.0])).data
        assert np.allclose(out, [0.26894, 0.73106], atol=5e-6)

    def test_nan_rejected(self):
        with pytest.raises(ad.NumericError):
            ad.softmax(Tensor([0.0, np.nan]))

    def test_infinite_max_rejected(self):
        # inf - inf is NaN: an infinite row maximum would fill the row with NaN
        for row in ([np.inf, 0.0], [-np.inf, -np.inf], [[0.0, 1.0], [np.inf, np.inf]]):
            with pytest.raises(ad.NumericError):
                ad.softmax(Tensor(row))
            with pytest.raises(ad.NumericError):
                ad.softmax_matmul(Tensor(row), Tensor(np.ones((2, 3))))
        # -inf below a finite maximum is an exact zero weight
        assert np.array_equal(ad.softmax(Tensor([-np.inf, 0.0])).data, [0.0, 1.0])

    @given(st.lists(st.floats(min_value=-10000.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=8))
    def test_sums_to_one(self, xs):
        out = ad.softmax(Tensor(xs)).data
        assert abs(out.sum() - 1.0) <= 1e-12
        # entries far below the max underflow to exactly 0
        assert (out >= 0).all() and (out <= 1).all()

    def test_grad(self, rng):
        w = Tensor(rng.normal(size=(2, 5)))
        assert_grad_matches(lambda t: (ad.softmax(t, axis=-1) * w).sum(),
                            rng.normal(size=(2, 5)))


def layer_norm(x, gain, bias):
    """`ad.residual_norm` with a zero residual branch: layer_norm(x)."""
    return ad.residual_norm(x, Tensor(np.zeros(x.shape)), None, gain, bias)


class TestLayerNorm:
    def test_constant_collapses_to_bias(self):
        out = layer_norm(Tensor([3.0, 3.0, 3.0]), Tensor(np.ones(3)),
                            Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0, atol=1e-5)

    def test_two_point(self):
        # variance 1, plus the 1e-12 layer_norm adds
        out = layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)),
                            Tensor(np.zeros(2)))
        assert np.array_equal(out.data, np.array([-1.0, 1.0]) / np.sqrt(1.0 + 1e-12))

    def test_shape_error(self):
        with pytest.raises(ad.ShapeError):
            layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)),
                          Tensor(np.zeros(3)))

    def test_grad_x(self, rng):
        gain = Tensor(rng.normal(size=6) + 1.0)
        bias = Tensor(rng.normal(size=6))
        w = Tensor(rng.normal(size=(3, 6)))
        assert_grad_matches(
            lambda t: (layer_norm(t, gain, bias) * w).sum(),
            rng.normal(size=(3, 6)))

    def test_grad_gain_bias(self, rng):
        x = Tensor(rng.normal(size=(3, 6)))
        w = Tensor(rng.normal(size=(3, 6)))
        assert_grad_matches(
            lambda t: (layer_norm(x, t, Tensor(np.zeros(6))) * w).sum(),
            rng.normal(size=6))
        assert_grad_matches(
            lambda t: (layer_norm(x, Tensor(np.ones(6)), t) * w).sum(),
            rng.normal(size=6))


class TestDropoutTokens:
    """Token-level dropout: a site multiplies x [rows, positions, hidden] by
    its `model.dropout_scales` [rows, positions, 1], one `Tensor.__mul__`
    node, so a position's whole hidden vector is dropped or kept."""

    config = M.ModelConfig(num_layers=1, hidden_size=4, num_heads=2, ffn_size=4)

    def scales(self, draws, rate):
        """Encoder scales of a one-layer model for draws [rows, 3 sites, positions]."""
        rows, _, n = draws.shape
        return M.dropout_scales(self.config, draws.reshape(rows, -1), (n, 0), (n, 0), rate)[0]

    def test_rate_zero_identity(self):
        # a rate of 0 draws nothing and drops nothing
        rng = np.random.default_rng(0)
        assert training._row_draws(rng, 0.0, self.config, 2, (5, 3), (4, 2)) is None
        assert rng.random() == np.random.default_rng(0).random()
        assert np.array_equal(self.scales(np.random.default_rng(1).random((2, 3, 5)), 0.0),
                              np.ones((3, 2, 5, 1)))

    def test_eval_mode_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 3)))
        assert M._dropout(x, None, 0) is x

    def test_row_granularity(self):
        draws = np.random.default_rng(7).random((2, 3, 25))
        x = Tensor(np.random.default_rng(8).normal(size=(2, 25, 4)))
        drop = self.scales(draws, 0.3)
        for site, scale in enumerate(drop):
            out = M._dropout(x, drop, site).data
            # the mask product token-level dropout has always computed
            keep = (draws[:, site] >= 0.3).astype(np.float64)
            assert np.array_equal(out, x.data * (keep[..., None] / (1.0 - 0.3)))
            # each position's vector is either entirely zero or entirely
            # scaled by 1/(1-rate)
            assert set(np.unique(scale)) <= {0.0, 1.0 / 0.7}
            dropped = (out == 0).all(axis=-1)
            assert np.array_equal(dropped, draws[:, site] < 0.3)
            assert dropped.any(), "seed 7 should drop some rows"

    def test_deterministic(self):
        draws = np.random.default_rng(3).random((2, 3, 10))
        a, b = self.scales(draws, 0.3), self.scales(draws.copy(), 0.3)
        assert np.array_equal(a, b) and a.flags.c_contiguous

    def test_expectation(self):
        x = Tensor(np.full((10_000, 2, 2), 5.0))
        drop = self.scales(np.random.default_rng(0).random((10_000, 3, 2)), 0.3)
        mean = M._dropout(x, drop, 1).data.mean(axis=0)
        assert np.allclose(mean, 5.0, rtol=0.02)

    def test_bad_rate(self):
        for rate in (1.0, -0.1):
            with pytest.raises(ValueError):
                training.TrainConfig(dropout=rate)

    def test_grad(self, rng):
        drop = self.scales(np.random.default_rng(11).random((2, 3, 3)), 0.3)
        w = Tensor(rng.normal(size=(2, 3, 4)))
        assert drop.min() == 0.0
        with ad.new_tape() as tape:
            M._dropout(Tensor(np.ones((2, 3, 4)), requires_grad=True), drop, 2)
        assert len(tape.nodes) == 1
        assert_grad_matches(lambda t: (M._dropout(t, drop, 2) * w).sum(),
                            rng.normal(size=(2, 3, 4)))


class TestElementwise:
    def test_log_sigmoid_gelu_grads(self, rng):
        x = rng.normal(size=7)
        assert_grad_matches(lambda t: ad.log(t).sum(), np.abs(x) + 0.5)
        assert_grad_matches(lambda t: ad.sigmoid(t).sum(), x)
        assert_grad_matches(lambda t: R.gelu(t).sum(), x)

    def test_gelu_values(self):
        # GELU(0)=0 and GELU is ~identity for large positive inputs
        out = R.gelu(Tensor([0.0, 10.0, -10.0])).data
        assert out[0] == 0.0
        assert abs(out[1] - 10.0) < 1e-12
        assert abs(out[2]) < 1e-12

    def test_clamp_min(self, rng):
        out = ad.clamp_min(Tensor([-1.0, 0.5]), 0.0)
        assert np.array_equal(out.data, [0.0, 0.5])
        assert_grad_matches(lambda t: ad.clamp_min(t, 0.0).sum(),
                            rng.normal(size=9) + 0.3)

    def test_getitem_grad(self, rng):
        x = rng.normal(size=(4, 5))
        idx = (np.array([0, 2, 2]), np.array([1, 3, 3]))
        assert_grad_matches(lambda t: t[idx].sum(), x)

    def test_embedding_grad(self, rng):
        table = rng.normal(size=(6, 3))
        ids = np.array([0, 5, 5, 2])
        assert_grad_matches(lambda t: ad.embedding(t, ids).sum(), table)

    def test_scatter_copy_grad(self, rng):
        att = rng.normal(size=(3, 5))
        ids = np.array([2, 0, -1, 2, 4])
        w = Tensor(rng.normal(size=(3, 6)))
        assert_grad_matches(
            lambda t: (ad.scatter_copy(t, ids, 6) * w).sum(), att)

    def test_scatter_copy_grad_rows(self, rng):
        att = rng.normal(size=(2, 3, 5))
        ids = np.array([[2, 0, -1, 2, 4], [1, 1, 5, -1, -1]])
        w = Tensor(rng.normal(size=(2, 3, 6)))
        assert_grad_matches(
            lambda t: (ad.scatter_copy(t, ids, 6) * w).sum(), att)


class TestTapeMechanics:
    def test_backward_requires_tape(self):
        t = Tensor([1.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_no_grad_suppresses_recording(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with ad.new_tape() as tape:
            with ad.no_grad():
                out = (t * 3).sum()
            assert out._parents == ()
            assert len(tape.nodes) == 0
            # recording resumes once the block exits
            after = (t * 3).sum()
        assert after._parents != ()
        assert len(tape.nodes) == 2

    def test_interior_gradients_are_freed(self):
        """After backward() every recorded node is still on the tape with
        its parents, and each one's gradient and rules are gone, and with
        the rules every array it saved for backward; the parameters keep
        their gradients."""
        config = M.ModelConfig(num_layers=2, hidden_size=8, num_heads=2, ffn_size=8,
                               vocab_size=12, encoder_positions=6, decoder_positions=4)
        store = init_random(config, 0)
        items = [example_for(config, [5, 6, 7], [8, 9]),
                 example_for(config, [9, 10, 11, 5, 6, 7], [5])]
        with ad.new_tape() as tape:
            loss, _ = training._summarize_loss(store, config, items,
                                               np.random.default_rng(0), 0.3)
            recorded = list(tape.nodes)
            saved = [weakref.ref(a) for a in saved_arrays(recorded)]
            loss.backward()
        assert len(recorded) > 50 and loss is recorded[-1]
        assert len(tape.nodes) == len(recorded)
        assert all(a is b for a, b in zip(tape.nodes, recorded))
        assert all(node.grad is None for node in tape.nodes)
        assert all(node._parents and node._grad_fns == () for node in tape.nodes)
        assert saved and all(ref() is None for ref in saved)
        assert np.abs(store.grad).max() > 0
        assert all(store[name].grad.shape == store[name].shape for name in store)

    def test_replay_frees_the_attention_softmax(self, rng):
        q, k, v = (Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
                   for _ in range(3))
        with ad.new_tape():
            out = ad.attention(q, k, v, 0.5)
            loss = (out * out).sum()
            (softmax,) = saved_arrays([out])
            assert softmax.shape == (2, 2, 3, 3)
            ref = weakref.ref(softmax)
            del softmax
            loss.backward()
        # the graph and its values are still referenced; the softmax is not
        assert loss._parents[0]._parents == (out, out)
        assert ref() is None

    def test_a_graph_is_replayed_once(self, rng):
        """The replay drops the rules of every node it ran and keeps those
        of nodes it did not reach; a second backward() through a replayed
        node raises and adds no gradient."""
        x = Tensor(rng.normal(size=3), requires_grad=True)
        with ad.new_tape():
            h = x * 2.0
            s = ad.sigmoid(h)
            loss = s.sum()
            unreached = x * 3.0
            loss.backward()
            first = x.grad.copy()
            assert all(n._parents and n._grad_fns == () for n in (h, s, loss))
            assert len(unreached._grad_fns) == len(unreached._parents) == 2
            with pytest.raises(RuntimeError, match="spent graph"):
                loss.backward()
            with pytest.raises(RuntimeError, match="spent graph"):
                (s * 2.0).sum().backward()
            assert np.array_equal(x.grad, first)
            # the branch the first replay did not reach replays as usual
            unreached.sum().backward()
        assert np.array_equal(x.grad, first + 3.0)

    def test_grad_populated_for_all_reachable(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        c = Tensor(rng.normal(size=3))
        with ad.new_tape():
            ((a * b) + ad.sigmoid(a) * c).sum().backward()
        assert a.grad is not None and a.grad.shape == a.data.shape
        assert b.grad is not None and b.grad.shape == b.data.shape
        assert c.grad is None

    def test_reused_tensor_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        with ad.new_tape():
            (a * a).sum().backward()
        assert np.allclose(a.grad, [4.0])

    def test_invariant_shapes(self, rng):
        t = Tensor(rng.normal(size=(2, 3)))
        assert t.data.size == int(np.prod(t.shape))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_seeded_determinism(self, seed):
        a = np.random.default_rng(seed).normal(size=5)
        b = np.random.default_rng(seed).normal(size=5)
        assert np.array_equal(a, b)


class TestArena:
    """A tape writes its ops' results into its arena; one arena, reset
    between graphs, recycles one graph's memory for the next."""

    def test_aligned_c_ordered_arrays_recycled_after_reset(self):
        arena = ad.Arena()
        shapes = [(3, 5), (), (0, 4), (2, 1, 7), (9,), (2, 3, 4, 5)]
        extents, owners = [], []
        # a fresh arena, then after each reset: the same graph, a larger one
        # (past the merged buffer), that one again, and the first again
        for extra in ([], [], [(40, 3)], [(40, 3)], []):
            arena.reset()
            arrays = [arena.empty(shape) for shape in shapes + extra]
            for i, (a, shape) in enumerate(zip(arrays, shapes + extra)):
                assert a.shape == shape and a.dtype == np.float64
                assert a.flags.c_contiguous and a.flags.writeable
                assert a.size == 0 or a.ctypes.data % 64 == 0
                a[...] = i
            # no two overlap
            assert all((a == i).all() for i, a in enumerate(arrays))
            extents.append([(a.ctypes.data, a.nbytes) for a in arrays])
            owners.append(len({id(a.base) for a in arrays}))
            del arrays, a
        # the fresh arena takes chunks; each reset after chunks merges them
        # into one buffer that holds the next graph
        assert owners[0] > 1 and owners[1:] == [1, 2, 1, 1]
        assert extents[2][:len(shapes)] == extents[1]
        assert extents[4] == extents[3][:len(shapes)]

    def test_overflow_chunks_double(self):
        """A fresh arena's graph of 100 arrays takes chunks that each hold
        everything handed out so far: 7 of them, not 100."""
        arena = ad.Arena()
        arrays = [arena.empty((2, 4)) for _ in range(100)]
        assert len({id(a.base) for a in arrays}) == 7

    def test_reset_leaves_a_live_array_its_memory(self):
        """An array still referenced at reset() (a graph an exception's
        traceback holds) keeps its memory; the next graph gets other memory."""
        arena = ad.Arena()
        for _ in range(3):      # a chunk, then merged buffers
            a = arena.empty((4, 4))
            a[...] = 7.0
            view = a.T[1:]
            del a
            arena.reset()
            b = arena.empty((4, 4))
            b[...] = 0.0
            assert not np.shares_memory(b, view) and (view == 7.0).all()
            del view, b
            arena.reset()

    def test_recycled_minibatches_match_fresh_tapes(self):
        """Minibatches whose rows and lengths change (the arena grows and
        merges, then holds smaller graphs) give a shared, reset arena the
        loss and every gradient of a fresh tape, bit for bit."""
        config = M.ModelConfig(num_layers=2, hidden_size=8, num_heads=2, ffn_size=8,
                               vocab_size=12, encoder_positions=8, decoder_positions=5)
        store = init_random(config, 0)
        r = np.random.default_rng(4)
        arena = ad.Arena()
        for k, (rows, s, t) in enumerate([(2, 3, 2), (4, 8, 5), (1, 2, 1), (4, 8, 5),
                                          (3, 6, 4), (4, 8, 5)]):
            # the first row at the batch's full lengths, the others shorter
            lengths = [(s, t)] + [(r.integers(1, s + 1), r.integers(1, t + 1))
                                  for _ in range(rows - 1)]
            batch = [example_for(config, list(r.integers(5, 12, a)), list(r.integers(5, 12, b)))
                     for a, b in lengths]
            results = []
            for shared in (True, False):
                store.zero_grads()
                if shared:
                    arena.reset()
                with ad.new_tape() as tape:
                    if shared:
                        tape.arena = arena
                    loss, _ = training._summarize_loss(store, config, batch,
                                                       np.random.default_rng(k), 0.3)
                    loss.backward()
                results.append((float(loss.data), store.grad.copy()))
                del tape, loss
            assert results[0][0] == results[1][0]
            assert np.array_equal(results[0][1], results[1][1])


def watched(t):
    """(t + a zero leaf, the leaf): the replay frees an interior tensor's
    gradient once it is used, and the leaf keeps a copy of the gradient that
    reaches the sum, all of its consumers' contributions added in replay
    order."""
    leaf = Tensor(np.zeros(t.shape), requires_grad=True)
    return t + leaf, leaf


# -- fused ops against the unfused compositions they replace -----------------

def unfused_linear(x, w, b):
    return R.matmul(x, w) + b


def unfused_scores(q, k, scale, mask_add):
    scores = R.matmul(q, R.swapaxes(k, -1, -2)) * scale
    return scores if mask_add is None else scores + Tensor(mask_add)


def unfused_softmax_matmul(s, v):
    return R.matmul(ad.softmax(s, axis=-1), v)


def replay(build, arrays, weight):
    """Forward data of build(*operands) and every operand's gradient of
    sum(build(*operands) * weight)."""
    operands = [Tensor(a, requires_grad=True) for a in arrays]
    with ad.new_tape():
        out = build(*operands)
        (out * Tensor(weight)).sum().backward()
    return out.data, [t.grad for t in operands]


def check_fused(fused, unfused, arrays, rng):
    """Forward and every operand's gradient bit for bit, and every gradient
    against finite differences."""
    out_shape = fused(*[Tensor(a) for a in arrays]).data.shape
    weight = rng.normal(size=out_shape)
    got, got_grads = replay(fused, arrays, weight)
    want, want_grads = replay(unfused, arrays, weight)
    assert np.array_equal(got, want)
    for i, (g, w) in enumerate(zip(got_grads, want_grads)):
        assert g.shape == arrays[i].shape
        assert np.array_equal(g, w), f"operand {i}"

        def build(t, i=i):
            operands = [t if j == i else Tensor(a) for j, a in enumerate(arrays)]
            return (fused(*operands) * Tensor(weight)).sum()

        assert_grad_matches(build, arrays[i])


leading = st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)


class TestLinear:
    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_matches_matmul_plus_bias(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        rows = data.draw(leading, "row axes")
        n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        vector = data.draw(st.booleans(), "vector weight")
        # weights unstacked against stacked inputs, or stacked like them
        w_rows = () if vector else data.draw(st.sampled_from([(), rows]), "weight row axes")
        w_shape = w_rows + ((n,) if vector else (n, k))
        b_shape = () if vector else data.draw(st.sampled_from([(k,), (1, k)]))
        arrays = [rng.normal(size=rows + (data.draw(st.integers(1, 3)), n)),
                  rng.normal(size=w_shape), rng.normal(size=b_shape)]
        check_fused(ad.linear, unfused_linear, arrays, rng)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.zeros(3)))


def broadcast_like(shape, draw):
    """An array of a shape that broadcasts against `shape`: every axis kept
    or set to 1, and leading axes possibly dropped."""
    kept = tuple(s if draw(st.booleans()) else 1 for s in shape)
    return kept[draw(st.integers(0, len(shape) - 2)):]


class TestAttentionScores:
    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_matches_unfused_chain(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        rows = data.draw(leading, "row and head axes")
        t, s, d = (data.draw(st.integers(1, 4)) for _ in range(3))
        # keys shared across rows (a beam's source) or one set per row
        k_rows = data.draw(st.sampled_from([rows, tuple(1 for _ in rows), ()]), "key axes")
        q = rng.normal(size=rows + (t, d))
        k = rng.normal(size=k_rows + (s, d))
        mask = None
        if data.draw(st.booleans(), "masked"):
            mask_shape = broadcast_like(rows + (t, s), data.draw)
            # -30, not the model's -10000: a constant that large would swamp
            # the finite differences of the weighted sum
            mask = np.where(rng.random(mask_shape) < 0.3, -30.0, 0.0)
        scale = 1.0 / np.sqrt(d)
        check_fused(lambda a, b: ad.attention_scores(a, b, scale, mask),
                    lambda a, b: unfused_scores(a, b, scale, mask), [q, k], rng)


class TestSoftmaxMatmul:
    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_matches_softmax_then_matmul(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        rows = data.draw(leading, "row and head axes")
        t, keys, d = (data.draw(st.integers(1, 4)) for _ in range(3))
        s_rows, v_rows = data.draw(st.sampled_from([(rows, rows), (rows, ()), ((), rows)]))
        s = rng.normal(size=s_rows + (t, keys)) * 3
        # masked keys: their weights underflow to exactly 0
        s = np.where(rng.random(s.shape) < 0.2, s - 10000.0, s)
        v = rng.normal(size=v_rows + (keys, d))
        check_fused(ad.softmax_matmul, unfused_softmax_matmul, [s, v], rng)

    def test_nan_rejected(self):
        with pytest.raises(ad.NumericError):
            ad.softmax_matmul(Tensor([[0.0, np.nan]]), Tensor(np.ones((2, 3))))

    def test_scores_shared_with_copy_head(self, rng):
        """One scores tensor feeds softmax·V and a copy-head slice, as the
        top cross-attention does; its gradient is the two contributions'
        sum, and q and k get the unfused chain's gradients."""
        q, k, v = (rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 3, 6, 5)),
                   rng.normal(size=(2, 3, 6, 5)))
        mask = np.where(rng.random((2, 1, 1, 6)) < 0.3, -10000.0, 0.0)
        w_out, w_copy = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 4, 6))

        def run(scores_fn, mix_fn, use_out=True, use_copy=True):
            qt, kt = Tensor(q, requires_grad=True), Tensor(k, requires_grad=True)
            with ad.new_tape():
                scores, seen = watched(scores_fn(qt, kt, 0.5, mask))
                loss = Tensor(0.0)
                if use_out:
                    loss = loss + (mix_fn(scores, Tensor(v)) * Tensor(w_out)).sum()
                if use_copy:
                    loss = loss + (scores[:, 1] * Tensor(w_copy)).sum()
                loss.backward()
            return seen.grad, qt.grad, kt.grad

        fused = run(ad.attention_scores, ad.softmax_matmul)
        unfused = run(unfused_scores, unfused_softmax_matmul)
        for got, want in zip(fused, unfused):
            assert np.array_equal(got, want)
        from_out = run(ad.attention_scores, ad.softmax_matmul, use_copy=False)[0]
        from_copy = run(ad.attention_scores, ad.softmax_matmul, use_out=False)[0]
        assert np.array_equal(fused[0], from_out + from_copy)


def attention_pair(q, k, v, scale, mask_add):
    return ad.softmax_matmul(ad.attention_scores(q, k, scale, mask_add), v)


def attention_case(rng, lead, t, s, d, mask_kind):
    """q [*lead, t, d], k and v [*lead, s, d], and a -30/0 mask: None,
    "rows" [rows, 1, 1, s], "keys" [1, 1, s] or "causal" [1, t, t]."""
    q, k, v = (rng.normal(size=lead + (n, d)) for n in (t, s, s))
    mask = {None: lambda: None,
            "rows": lambda: np.where(rng.random((lead[0], 1, 1, s)) < 0.3, -30.0, 0.0),
            "keys": lambda: np.where(rng.random((1, 1, s)) < 0.3, -30.0, 0.0),
            "causal": lambda: np.triu(np.full((t, t), -30.0), k=1)[None]}[mask_kind]()
    return [q, k, v], mask


def check_attention(arrays, mask, rows_per_block, rng):
    """check_fused of ad.attention against the pair, in blocks of
    rows_per_block leading rows (None: the module's own budget)."""
    q, k, _ = arrays
    shape = q.shape[:-1] + k.shape[-2:-1]
    with pytest.MonkeyPatch.context() as patch:
        if rows_per_block is not None:
            patch.setattr(ad, "_ATTENTION_BLOCK_BYTES", rows_per_block * 8 * np.prod(shape[1:]))
        blocks = ad._row_blocks(shape)
        check_fused(lambda *a: ad.attention(*a, 0.5, mask),
                    lambda *a: attention_pair(*a, 0.5, mask), arrays, rng)
    return [b.indices(shape[0]) for b in blocks]


class TestAttention:
    """ad.attention against softmax_matmul(attention_scores(...)), the pair
    cross-attention still runs."""

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_matches_scores_then_softmax_matmul(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        heads, s, d, rows = (data.draw(st.integers(1, n)) for n in (3, 4, 3, 5))
        kind = data.draw(st.sampled_from(["unbatched", "rows", "decode"]))
        # an unbatched encode, stacked rows, or a cached decode step's
        # [sources, rows, heads, 1, d] queries over [.., keys, d]
        lead, t = {"unbatched": ((heads,), s), "rows": ((rows, heads), s),
                   "decode": ((rows, data.draw(st.integers(1, 3)), heads), 1)}[kind]
        masks = [None, "keys"] + {"unbatched": ["causal"], "rows": ["rows", "causal"],
                                  "decode": []}[kind]
        arrays, mask = attention_case(rng, lead, t, s, d, data.draw(st.sampled_from(masks)))
        check_attention(arrays, mask, data.draw(st.sampled_from([None, 1, 2, 3])), rng)

    @pytest.mark.parametrize("rows_per_block, blocks", [
        (None, [(0, 5, 1)]), (5, [(0, 5, 1)]), (1, [(i, i + 1, 1) for i in range(5)]),
        (2, [(0, 2, 1), (2, 4, 1), (4, 5, 1)])], ids=["default", "one", "each-row", "ragged"])
    @pytest.mark.parametrize("mask_kind", [None, "rows", "keys", "causal"])
    def test_blocks(self, rows_per_block, blocks, mask_kind, rng):
        arrays, mask = attention_case(rng, (5, 2), 4, 4, 3, mask_kind)
        assert check_attention(arrays, mask, rows_per_block, rng) == blocks

    def test_block_budget(self):
        # the encoder's longform shape: one row of scores is 320,000 bytes
        assert ad._ATTENTION_BLOCK_BYTES == 512 * 1024
        assert len(ad._row_blocks((16, 4, 100, 100))) == 16
        assert [b.indices(16) for b in ad._row_blocks((16, 4, 40, 40))] == [
            (0, 10, 1), (10, 16, 1)]
        assert len(ad._row_blocks((16, 4, 24, 24))) == 1

    def test_non_finite_rejected(self, rng):
        q, k, v = (rng.normal(size=(2, 3, 4, 5)) for _ in range(3))
        for bad in (np.nan, np.inf):
            poisoned = q.copy()
            poisoned[1, 2, 3, 0] = bad
            with pytest.raises(ad.NumericError):
                ad.attention(Tensor(poisoned), Tensor(k), Tensor(v), 0.5)

    def test_shape_mismatch(self, rng):
        def arr(*shape):
            return Tensor(rng.normal(size=shape))
        good = (2, 3, 4, 5)
        for shapes in [(good, (1, 3, 4, 5), good), (good, good, (2, 1, 4, 5)),
                       ((3, 4, 5), (2, 3, 4, 5), (2, 3, 4, 5)), (good, (2, 3, 4, 6), good),
                       (good, good, (2, 3, 6, 5)), ((4, 5), (4, 5), (4, 5))]:
            with pytest.raises(ad.ShapeError):
                ad.attention(*(arr(*shape) for shape in shapes), 0.5)


def unfused_heads(x, w, b, heads):
    y = R.matmul(x, w) + b
    return R.swapaxes(y.reshape(*y.shape[:-1], heads, y.shape[-1] // heads), -3, -2)


def unfused_merge(ctx, w, b):
    ctx = R.swapaxes(ctx, -3, -2)
    return R.matmul(ctx.reshape(*ctx.shape[:-2], -1), w) + b


def unfused_ffn(x, w_in, b_in, w_out, b_out):
    return R.matmul(R.gelu(R.matmul(x, w_in) + b_in), w_out) + b_out


def unfused_residual_norm(x, out, scale, gain, bias):
    return R.layer_norm(x + (out if scale is None else out * scale), gain, bias)


class TestSplitHeads:
    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_matches_linear_reshape_swapaxes(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        rows = data.draw(leading, "row axes")
        steps, n, heads, d = (data.draw(st.integers(1, k)) for k in (4, 4, 4, 3))
        arrays = [rng.normal(size=rows + (steps, n)), rng.normal(size=(n, heads * d)),
                  rng.normal(size=heads * d)]
        check_fused(lambda *a: ad.split_heads(*a, heads), lambda *a: unfused_heads(*a, heads),
                    arrays, rng)

    def test_heads_must_divide_the_projection(self):
        with pytest.raises(ad.ShapeError):
            ad.split_heads(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))),
                           Tensor(np.zeros(4)), 3)


class TestMergeHeads:
    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_matches_swapaxes_reshape_linear(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        rows = data.draw(leading, "row axes")
        heads, steps, d, k = (data.draw(st.integers(1, n)) for n in (4, 4, 3, 4))
        arrays = [rng.normal(size=rows + (heads, steps, d)), rng.normal(size=(heads * d, k)),
                  rng.normal(size=k)]
        check_fused(ad.merge_heads, unfused_merge, arrays, rng)

    def test_shape_mismatch(self):
        for ctx in (np.ones((2, 3)), np.ones((2, 3, 4))):
            with pytest.raises(ad.ShapeError):
                ad.merge_heads(Tensor(ctx), Tensor(np.ones((4, 2))), Tensor(np.zeros(2)))


class TestFfn:
    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_matches_linear_gelu_linear(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        rows = data.draw(leading, "row axes")
        steps, n, f, k = (data.draw(st.integers(1, 4)) for _ in range(4))
        arrays = [rng.normal(size=rows + (steps, n)), rng.normal(size=(n, f)),
                  rng.normal(size=f), rng.normal(size=(f, k)), rng.normal(size=k)]
        check_fused(ad.ffn, unfused_ffn, arrays, rng)


class TestResidualNorm:
    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_matches_dropout_add_layer_norm(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        rows = data.draw(leading, "row axes")
        steps, n = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 5))
        # a dropout site's [rows, positions, 1] scales, or none
        scale = (np.where(rng.random(rows + (steps, 1)) < 0.3, 0.0, 1.0 / 0.7)
                 if data.draw(st.booleans(), "dropout") else None)
        arrays = [rng.normal(size=rows + (steps, n)), rng.normal(size=rows + (steps, n)),
                  rng.normal(size=n) + 1.0, rng.normal(size=n)]
        check_fused(lambda x, out, g, b: ad.residual_norm(x, out, scale, g, b),
                    lambda x, out, g, b: unfused_residual_norm(x, out, scale, g, b),
                    arrays, rng)


class TestFirstTouchAccumulation:
    """A tensor's first gradient is stored as a copy; later ones add to it."""

    @staticmethod
    def graph(lookup, project, bias, ids, watch=lambda t: t):
        """Embeddings tied when `lookup` is `project`: the table is looked up
        and also projects the output; x feeds a product and the sum after it.
        Every interior tensor passes through `watch`."""
        r = np.random.default_rng(0)
        x = watch(ad.embedding(lookup, ids))
        m = r.normal(size=x.shape)
        h = watch(x + watch(x * Tensor(m)))
        logits = watch(ad.linear(h, watch(project.transpose()), bias))
        return m, watch(logits * Tensor(r.normal(size=logits.shape))).sum()

    @staticmethod
    def store(rng):
        return ParamStore({"word": Tensor(rng.normal(size=(7, 3)), requires_grad=True),
                           "bias": Tensor(rng.normal(size=7), requires_grad=True)}, {})

    def test_sums_contributions_into_unshared_c_ordered_buffers(self, rng):
        store = self.store(rng)
        word, bias = store["word"], store["bias"]
        ids = np.array([[1, 4, 4], [0, 6, 1]])
        leaves = []

        def watch(t):
            t, leaf = watched(t)
            leaves.append(leaf)
            return t

        with ad.new_tape():
            m, loss = self.graph(word, word, bias, ids, watch)
            loss.backward()
        x, _, h = leaves[:3]
        # the sum's gradient first, then the product's
        assert np.array_equal(x.grad, h.grad + h.grad * m)
        # the tied table's gradient is its two uses' gradients added
        parts = []
        for tied_use in (0, 1):
            own = Tensor(word.data.copy(), requires_grad=True)
            other = Tensor(word.data.copy())
            tables = (own, other) if tied_use == 0 else (other, own)
            with ad.new_tape():
                self.graph(*tables, Tensor(bias.data), ids)[-1].backward()
            parts.append(own.grad)
        assert np.array_equal(word.grad, parts[1] + parts[0])
        # a watched tensor and its leaf get the same array from the sum's
        # rule; each stores its own copy, C-ordered even when it comes
        # transposed (the projection's)
        grads = [t.grad for t in [word, bias, *leaves]] + parts
        assert len(grads) == 10 and all(g is not None for g in grads)
        for i, g in enumerate(grads):
            assert g.flags.c_contiguous
            for other in grads[i + 1:]:
                assert not np.shares_memory(g, other)

    def test_next_minibatch_starts_fresh(self, rng):
        store = self.store(rng)
        fresh = store.copy()
        for s, ids in ((store, np.array([[1, 2]])), (store, np.array([[3, 3], [5, 0]])),
                       (fresh, np.array([[3, 3], [5, 0]]))):
            s.zero_grads()
            with ad.new_tape():
                self.graph(s["word"], s["word"], s["bias"], ids)[-1].backward()
        for name in store:
            assert np.array_equal(store[name].grad, fresh[name].grad)


class TestHotOpsKeepTheirBits:
    """Each hot op's forward against the expression it computed before it
    made fewer temporaries, bit for bit."""

    @staticmethod
    def array(data, rng):
        """A C-ordered or transposed array, -10000 at a fifth of its entries."""
        shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
        x = rng.normal(size=shape) * data.draw(st.sampled_from([1.0, 30.0]))
        x = np.where(rng.random(shape) < 0.2, -10000.0, x)
        return x.T if data.draw(st.booleans(), "transposed") else x

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_softmax(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        x = self.array(data, rng)
        axis = data.draw(st.integers(-x.ndim, x.ndim - 1))
        old = np.exp(x - x.max(axis=axis, keepdims=True))
        old /= old.sum(axis=axis, keepdims=True)
        assert np.array_equal(ad._softmax(x, axis), old)
        assert np.array_equal(ad.softmax(Tensor(x), axis).data, old)
        in_place = x.copy(order="K")
        assert ad._softmax(in_place, axis, out=in_place) is in_place
        assert np.array_equal(in_place, old)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_layer_norm(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        x = self.array(data, rng) + data.draw(st.sampled_from([0.0, 1e3]))
        gain, bias = rng.normal(size=x.shape[-1]), rng.normal(size=x.shape[-1])
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-12)
        old = gain * ((x - mu) * inv) + bias
        assert np.array_equal(layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data, old)
        assert np.array_equal(R.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data, old)

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_linear(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        x = self.array(data, rng)
        n, k = x.shape[-1], data.draw(st.integers(1, 4))
        w = rng.normal(size=data.draw(st.sampled_from([(n, k), (n,)])))
        b = rng.normal(size=w.shape[1:])
        assert np.array_equal(ad.linear(Tensor(x), Tensor(w), Tensor(b)).data,
                              np.matmul(x, w) + b)


class TestLazyRules:
    def test_no_rules_built_without_a_tape(self, monkeypatch, rng):
        def refuse(*_):
            raise AssertionError("gradient rules built")

        monkeypatch.setattr(ad, "_matmul_rules", refuse)
        monkeypatch.setattr(ad, "_joint_rules", refuse)
        x, w, b, w2, gain = (Tensor(rng.normal(size=s), requires_grad=True)
                             for s in ((2, 4), (4, 4), (4,), (4, 4), (4,)))
        with ad.new_tape() as tape, ad.no_grad():
            ad.linear(x, w, b)
            ad.merge_heads(ad.split_heads(x, w, b, 2), w2, b)
            ad.residual_norm(x, ad.ffn(x, w, b, w2, b), None, gain, b)
        assert tape.nodes == []
        for op in (lambda: ad.linear(x, w, b), lambda: ad.split_heads(x, w, b, 2),
                   lambda: ad.ffn(x, w, b, w2, b),
                   lambda: ad.residual_norm(x, x, None, gain, b)):
            with ad.new_tape(), pytest.raises(AssertionError, match="rules built"):
                op()


class TestErfBinding:
    """`ad.erf` is scipy's erf ufunc, bound without importing scipy.special."""

    def test_is_scipy_special_erf(self):
        import scipy.special
        assert ad.erf is scipy.special.erf
        rng = np.random.default_rng(0)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                             2.2250738585072014e-308, 1e-310, -1e-310, 1.0, -1.0,
                             8.0, -8.0, 6.0, 1e300, -1e300])
        x = np.concatenate([
            specials,
            rng.integers(0, 2**64, size=300_000, dtype=np.uint64).view(np.float64),
            rng.uniform(-8.0, 8.0, size=400_000),
            rng.uniform(1.0, 8.0, size=100_000) * rng.choice([-1.0, 1.0], size=100_000),
            rng.uniform(8.0, 40.0, size=100_000) * rng.choice([-1.0, 1.0], size=100_000),
            rng.uniform(-1.0, 1.0, size=100_000) * 1e-310])
        assert x.size >= 10**6
        assert np.array_equal(ad.erf(x).view(np.uint64),
                              scipy.special.erf(x).view(np.uint64))

    def test_cli_import_loads_only_the_erf_module(self):
        """`import stagesum.cli` imports no part of scipy but the extension
        module that defines erf."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = ("import sys; import stagesum.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "['scipy.special._special_ufuncs']"

    @pytest.mark.parametrize("where", ["empty", "none"])
    def test_falls_back_to_scipy_special(self, tmp_path, monkeypatch, where):
        """Without the extension module (another scipy layout) the loader
        takes erf from scipy.special."""
        import scipy.special
        monkeypatch.delitem(sys.modules, ad._ERF_MODULE)
        scipy_dirs = [str(tmp_path)] if where == "empty" else []
        assert ad._bind_erf(scipy_dirs) is scipy.special.erf
        assert ad._ERF_MODULE not in sys.modules
