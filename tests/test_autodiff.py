"""Tensor-core tests: op semantics and gradients against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagesum import autodiff as ad
from stagesum.autodiff import Tensor

from conftest import assert_grad_matches, grad_of


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_dot_product(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_grad_sum_ab(self):
        # d/dA sum(A B) = 1 B^T; hand value for B = 2I is all twos
        a = np.ones((2, 2))
        b = Tensor([[2.0, 0.0], [0.0, 2.0]])
        analytic = grad_of(lambda t: ad.matmul(t, b).sum(), a)
        assert np.allclose(analytic, np.full((2, 2), 2.0))
        assert_grad_matches(lambda t: ad.matmul(t, b).sum(), a)

    def test_grad_wrt_right_operand(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert_grad_matches(lambda t: ad.matmul(a, t).sum(),
                            np.linspace(-1, 1, 12).reshape(3, 4))

    def test_grad_batched(self, rng):
        a = rng.normal(size=(3, 2, 4))
        b = Tensor(rng.normal(size=(3, 4, 5)))
        assert_grad_matches(lambda t: (ad.matmul(t, b) * Tensor(np.ones((3, 2, 5)))).sum(), a)
        # one operand stacked, the other not: its gradient sums over the batch axis
        for a_shape, b_shape in [((3, 2, 4), (4, 5)), ((2, 4), (3, 4, 5)),
                                 ((3, 2, 4), (4,)), ((4,), (3, 4, 5))]:
            a = rng.normal(size=a_shape)
            b = rng.normal(size=b_shape)
            w = Tensor(rng.normal(size=np.matmul(a, b).shape))
            assert_grad_matches(lambda t: (ad.matmul(t, Tensor(b)) * w).sum(), a)
            assert_grad_matches(lambda t: (ad.matmul(Tensor(a), t) * w).sum(), b)

    def test_grad_matrix_vector(self, rng):
        m = Tensor(rng.normal(size=(3, 4)))
        assert_grad_matches(lambda t: ad.matmul(m, t).sum(), rng.normal(size=4))


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


class TestLayerNorm:
    def test_constant_collapses_to_bias(self):
        out = ad.layer_norm(Tensor([3.0, 3.0, 3.0]), Tensor(np.ones(3)),
                            Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0, atol=1e-5)

    def test_two_point(self):
        out = ad.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)),
                            Tensor(np.zeros(2)), eps=0.0)
        assert np.allclose(out.data, [-1.0, 1.0])

    def test_shape_error(self):
        with pytest.raises(ad.ShapeError):
            ad.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)),
                          Tensor(np.zeros(3)))

    def test_grad_x(self, rng):
        gain = Tensor(rng.normal(size=6) + 1.0)
        bias = Tensor(rng.normal(size=6))
        w = Tensor(rng.normal(size=(3, 6)))
        assert_grad_matches(
            lambda t: (ad.layer_norm(t, gain, bias) * w).sum(),
            rng.normal(size=(3, 6)))

    def test_grad_gain_bias(self, rng):
        x = Tensor(rng.normal(size=(3, 6)))
        w = Tensor(rng.normal(size=(3, 6)))
        assert_grad_matches(
            lambda t: (ad.layer_norm(x, t, Tensor(np.zeros(6))) * w).sum(),
            rng.normal(size=6))
        assert_grad_matches(
            lambda t: (ad.layer_norm(x, Tensor(np.ones(6)), t) * w).sum(),
            rng.normal(size=6))


class TestDropoutTokens:
    def test_rate_zero_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        out = ad.dropout_tokens(x, 0.0, rng)
        assert out is x

    def test_eval_mode_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        assert ad.dropout_tokens(x, 0.5, None) is x

    def test_row_granularity(self):
        x = Tensor(np.ones((50, 4)))
        out = ad.dropout_tokens(x, 0.3, np.random.default_rng(7)).data
        # each row is either entirely zero or entirely scaled by 1/(1-rate)
        for row in out:
            assert np.all(row == 0.0) or np.allclose(row, 1.0 / 0.7)
        assert (out == 0).all(axis=1).any(), "seed 7 should drop some rows"

    def test_deterministic(self):
        x = Tensor(np.ones((20, 3)))
        a = ad.dropout_tokens(x, 0.3, np.random.default_rng(3)).data
        b = ad.dropout_tokens(x, 0.3, np.random.default_rng(3)).data
        assert np.array_equal(a, b)

    def test_expectation(self):
        x = Tensor(np.full((10, 2), 5.0))
        total = np.zeros((10, 2))
        n = 10_000
        rng = np.random.default_rng(0)
        for _ in range(n):
            total += ad.dropout_tokens(x, 0.3, rng).data
        assert np.allclose(total / n, x.data, rtol=0.02)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            ad.dropout_tokens(Tensor(np.ones((2, 2))), 1.0, np.random.default_rng(0))

    def test_grad(self, rng):
        mask_rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 3))

        def build(t):
            return (ad.dropout_tokens(t, 0.3, np.random.default_rng(11))
                    * Tensor(np.ones((6, 3)))).sum()

        assert_grad_matches(build, x)
        del mask_rng


class TestElementwise:
    def test_exp_log_sigmoid_gelu_grads(self, rng):
        x = rng.normal(size=7)
        assert_grad_matches(lambda t: ad.exp(t).sum(), x)
        assert_grad_matches(lambda t: ad.log(t).sum(), np.abs(x) + 0.5)
        assert_grad_matches(lambda t: ad.sigmoid(t).sum(), x)
        assert_grad_matches(lambda t: ad.gelu(t).sum(), x)

    def test_gelu_values(self):
        # GELU(0)=0 and GELU is ~identity for large positive inputs
        out = ad.gelu(Tensor([0.0, 10.0, -10.0])).data
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

    def test_grad_populated_for_all_reachable(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        c = Tensor(rng.normal(size=3))
        with ad.new_tape():
            ((a * b) + ad.exp(a) * c).sum().backward()
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
