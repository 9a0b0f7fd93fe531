"""Elementwise / reduction / shape op correctness and gradients."""

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck, no_grad
from repro.tensor.tensor import concatenate, stack, where


def t(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestArithmetic:
    def test_add_values(self):
        out = t([1.0, 2.0]) + t([3.0, 4.0])
        np.testing.assert_allclose(out.numpy(), [4.0, 6.0])

    def test_add_scalar_right_and_left(self):
        x = t([1.0, 2.0])
        np.testing.assert_allclose((x + 1.5).numpy(), [2.5, 3.5])
        np.testing.assert_allclose((1.5 + x).numpy(), [2.5, 3.5])

    def test_sub_and_rsub(self):
        x = t([3.0])
        np.testing.assert_allclose((x - 1.0).numpy(), [2.0])
        np.testing.assert_allclose((1.0 - x).numpy(), [-2.0])

    def test_mul_grad(self):
        x, y = t([2.0, 3.0]), t([5.0, 7.0])
        (x * y).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0, 7.0])
        np.testing.assert_allclose(y.grad, [2.0, 3.0])

    def test_div_grad(self):
        x, y = t([6.0]), t([3.0])
        (x / y).backward()
        np.testing.assert_allclose(x.grad, [1 / 3])
        np.testing.assert_allclose(y.grad, [-6.0 / 9.0])

    def test_rtruediv(self):
        y = t([4.0])
        out = 8.0 / y
        out.backward()
        np.testing.assert_allclose(out.numpy(), [2.0])
        np.testing.assert_allclose(y.grad, [-8.0 / 16.0])

    def test_neg(self):
        x = t([1.0, -2.0])
        (-x).sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, -1.0])

    def test_pow_grad(self):
        x = t([2.0, 3.0])
        (x**3).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0, 27.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            t([1.0]) ** t([2.0])

    def test_chained_expression_gradcheck(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((3, 4)))
        gradcheck(lambda x, y: (x * y + x / (y * y + 2.0)).tanh(), [a, b])


class TestBroadcasting:
    def test_broadcast_add_row_vector(self):
        x = t(np.ones((3, 4)))
        b = t(np.arange(4.0))
        (x + b).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, [3.0, 3.0, 3.0, 3.0])

    def test_broadcast_scalar_tensor(self):
        x = t(np.ones((2, 2)))
        s = t(2.0)
        (x * s).sum().backward()
        np.testing.assert_allclose(s.grad, 4.0)

    def test_broadcast_middle_axis(self, rng):
        a = Tensor(rng.standard_normal((2, 1, 3)))
        b = Tensor(rng.standard_normal((2, 4, 3)))
        gradcheck(lambda x, y: x * y, [a, b])

    def test_broadcast_leading_axis_gradcheck(self, rng):
        a = Tensor(rng.standard_normal((4,)))
        b = Tensor(rng.standard_normal((2, 3, 4)))
        gradcheck(lambda x, y: x + y * 2.0, [a, b])


class TestUnaryOps:
    @pytest.mark.parametrize(
        "op",
        ["exp", "tanh", "sigmoid", "relu", "abs", "sqrt", "log"],
    )
    def test_unary_gradcheck(self, rng, op):
        raw = rng.standard_normal((3, 5))
        if op in ("sqrt", "log"):
            raw = np.abs(raw) + 0.5
        if op in ("relu", "abs"):
            # keep away from the kink where finite differences lie
            raw = raw + np.sign(raw) * 0.2
        x = Tensor(raw)
        gradcheck(lambda a: getattr(a, op)(), [x])

    def test_sigmoid_extreme_values_stable(self):
        x = t([-500.0, 0.0, 500.0])
        out = x.sigmoid().numpy()
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_relu_zeroes_negatives(self):
        x = t([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(x.relu().numpy(), [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_bitwise_where_on_special_values(self, rng, dtype):
        """``relu`` is ``fmax`` now; its bits are still ``where(x > 0, x, 0)``'s.

        NumPy's fmax returns -0.0 for a -0.0 input on some of its loops
        (float64 scalar loops), so every size up to past the SIMD width
        and several layouts are tried."""
        info = np.finfo(dtype)
        special = np.array(
            [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, info.smallest_subnormal,
             -info.smallest_subnormal, info.tiny, -info.tiny, info.max, -info.max, 1.0, -1.0],
            dtype=dtype,
        )
        for n in [*range(1, 20), 64, 1001]:
            x = rng.choice(special, size=(n, 3)).astype(dtype)
            for view in (x, x.T, x[::2], np.asfortranarray(x)):
                want = np.where(view > 0, view, 0).astype(dtype)
                got = Tensor(view).relu().data
                assert got.dtype == dtype
                assert got.tobytes() == want.tobytes(), (n, view.strides)

    def test_relu_under_no_grad_builds_no_graph(self, rng):
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        graphed = x.relu()
        with no_grad():
            free = x.relu()
        assert not free.requires_grad and free._backward is None and free._parents == ()
        assert np.array_equal(free.data, graphed.data)

    def test_leaky_relu_slope(self):
        x = t([-10.0, 10.0])
        out = x.leaky_relu(0.1)
        out.sum().backward()
        np.testing.assert_allclose(out.numpy(), [-1.0, 10.0])
        np.testing.assert_allclose(x.grad, [0.1, 1.0])

    def test_clip_gradient_mask(self):
        x = t([-2.0, 0.5, 2.0])
        out = x.clip(-1.0, 1.0)
        out.sum().backward()
        np.testing.assert_allclose(out.numpy(), [-1.0, 0.5, 1.0])
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_all(self):
        x = t(np.arange(6.0).reshape(2, 3))
        out = x.sum()
        out.backward()
        assert out.item() == 15.0
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_sum_axis_keepdims(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)))
        gradcheck(lambda a: a.sum(axis=1, keepdims=True), [x])
        gradcheck(lambda a: a.sum(axis=(0, 2)), [x])

    def test_mean_matches_numpy(self, rng):
        data = rng.standard_normal((4, 5))
        x = Tensor(data)
        np.testing.assert_allclose(x.mean(axis=0).numpy(), data.mean(axis=0), rtol=1e-6)
        gradcheck(lambda a: a.mean(axis=1), [Tensor(data)])

    def test_var_matches_numpy(self, rng):
        data = rng.standard_normal((6, 3))
        x = Tensor(data)
        np.testing.assert_allclose(x.var(axis=0).numpy(), data.var(axis=0), rtol=1e-5)
        gradcheck(lambda a: a.var(axis=0), [Tensor(data)])

    def test_max_axis_and_grad_single_max(self):
        x = t([[1.0, 5.0, 3.0], [7.0, 2.0, 4.0]])
        out = x.max(axis=1)
        out.sum().backward()
        np.testing.assert_allclose(out.numpy(), [5.0, 7.0])
        expected = np.array([[0, 1, 0], [1, 0, 0]], dtype=float)
        np.testing.assert_allclose(x.grad, expected)

    def test_max_tie_splits_gradient(self):
        x = t([[2.0, 2.0]])
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5]])

    def test_min_is_neg_max(self):
        x = t([[3.0, 1.0, 2.0]])
        np.testing.assert_allclose(x.min(axis=1).numpy(), [1.0])


class TestShapeOps:
    def test_reshape_roundtrip_grad(self, rng):
        x = Tensor(rng.standard_normal((2, 6)))
        gradcheck(lambda a: a.reshape(3, 4) * 2.0, [x])

    def test_flatten_start_dim(self):
        x = t(np.zeros((2, 3, 4)))
        assert x.flatten(start_dim=1).shape == (2, 12)
        assert x.flatten().shape == (24,)

    def test_transpose_default_reverses(self, rng):
        data = rng.standard_normal((2, 3, 4))
        assert Tensor(data).transpose().shape == (4, 3, 2)

    def test_transpose_permutation_grad(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)))
        gradcheck(lambda a: a.transpose(1, 0, 2) * 3.0, [x])

    def test_getitem_slice_grad(self):
        x = t(np.arange(12.0).reshape(3, 4))
        out = x[1:, :2]
        out.sum().backward()
        expected = np.zeros((3, 4))
        expected[1:, :2] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_integer_array(self, rng):
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2])
        out = x[idx]
        out.sum().backward()
        # row 2 picked twice -> gradient 2
        np.testing.assert_allclose(x.grad[2], np.full(3, 2.0))
        np.testing.assert_allclose(x.grad[1], np.zeros(3))

    def test_pad2d_roundtrip(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 3)))
        out = x.pad2d(2)
        assert out.shape == (1, 2, 7, 7)
        gradcheck(lambda a: a.pad2d(1), [Tensor(rng.standard_normal((1, 1, 2, 2)))])

    def test_pad2d_zero_is_identity(self):
        x = t(np.ones((1, 1, 2, 2)))
        assert x.pad2d(0) is x


class TestMatmul:
    def test_2d_matmul_value(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.numpy(), a @ b, rtol=1e-6)

    def test_2d_matmul_gradcheck(self, rng):
        gradcheck(
            lambda x, y: x @ y,
            [Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((4, 2)))],
        )

    def test_matmul_relu_gradcheck(self, rng):
        gradcheck(
            lambda x, y: (x @ y).relu().sum(),
            [Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((4, 2)))],
        )

    def test_batched_matmul_gradcheck(self, rng):
        gradcheck(
            lambda x, y: x @ y,
            [Tensor(rng.standard_normal((2, 3, 4))), Tensor(rng.standard_normal((2, 4, 2)))],
        )

    def test_broadcast_batched_matmul(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((5, 4, 2)))
        out = a @ b
        assert out.shape == (5, 3, 2)
        gradcheck(lambda x, y: x @ y, [a, b])

    def test_vector_dot(self, rng):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        out = Tensor(a).dot(Tensor(b))
        np.testing.assert_allclose(out.item(), a @ b, rtol=1e-6)
        gradcheck(lambda x, y: x.dot(y), [Tensor(a), Tensor(b)])

    def test_matrix_vector(self, rng):
        gradcheck(
            lambda x, y: x @ y,
            [Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal(4))],
        )


class TestCombinators:
    def test_concatenate_values_and_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((2, 2)))
        gradcheck(lambda x, y: concatenate([x, y], axis=1), [a, b])

    def test_stack_new_axis(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((2, 3)))
        out = stack([a, b], axis=1)
        assert out.shape == (2, 2, 3)
        gradcheck(lambda x, y: stack([x, y], axis=0), [a, b])

    def test_where_selects_and_routes_grads(self):
        cond = np.array([True, False, True])
        a, b = t([1.0, 2.0, 3.0]), t([10.0, 20.0, 30.0])
        out = where(cond, a, b)
        out.sum().backward()
        np.testing.assert_allclose(out.numpy(), [1.0, 20.0, 3.0])
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])


class TestComparisons:
    def test_comparison_returns_mask_without_graph(self):
        x = t([1.0, 3.0])
        mask = x > 2.0
        assert not mask.requires_grad
        np.testing.assert_allclose(mask.numpy(), [0.0, 1.0])

    def test_all_comparison_ops(self):
        x, y = t([1.0, 2.0, 3.0]), t([2.0, 2.0, 2.0])
        np.testing.assert_allclose((x < y).numpy(), [1, 0, 0])
        np.testing.assert_allclose((x <= y).numpy(), [1, 1, 0])
        np.testing.assert_allclose((x >= y).numpy(), [0, 1, 1])
