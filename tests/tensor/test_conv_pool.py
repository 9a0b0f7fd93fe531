"""Convolution and pooling: reference values, shapes, gradients."""

import numpy as np
import pytest
from scipy import signal

from repro.tensor import Tensor, functional as F, gradcheck, no_grad


def reference_conv2d(x, w, b=None, stride=1, padding=0):
    """Direct cross-correlation reference using scipy.signal."""
    n, c_in, h, wd = x.shape
    c_out = w.shape[0]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - w.shape[2]) // stride + 1
    out_w = (x.shape[3] - w.shape[3]) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for i in range(n):
        for o in range(c_out):
            acc = np.zeros((x.shape[2] - w.shape[2] + 1, x.shape[3] - w.shape[3] + 1))
            for ci in range(c_in):
                acc += signal.correlate2d(x[i, ci], w[o, ci], mode="valid")
            out[i, o] = acc[::stride, ::stride]
            if b is not None:
                out[i, o] += b[o]
    return out


class TestConv2dValues:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_scipy_reference(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        ref = reference_conv2d(x, w, b, stride=stride, padding=padding)
        np.testing.assert_allclose(out.numpy(), ref, rtol=1e-5, atol=1e-8)

    def test_identity_kernel(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 1, 1))
        w[0, 0, 0, 0] = 1.0
        out = F.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.numpy(), x)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(x, w)

    def test_output_shape_formula(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 9, 9)))
        w = Tensor(rng.standard_normal((5, 2, 3, 3)))
        out = F.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 5, 5, 5)


class TestConv2dGradients:
    def test_gradcheck_no_bias(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5)
        gradcheck(lambda a, b: F.conv2d(a, b, stride=1, padding=1), [x, w])

    def test_gradcheck_strided_with_bias(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 6, 6)))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)) * 0.5)
        b = Tensor(rng.standard_normal(2) * 0.5)
        gradcheck(lambda a, c, d: F.conv2d(a, c, d, stride=2), [x, w, b])

    def test_input_grad_only(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)), requires_grad=True)
        w = Tensor(np.ones((1, 1, 2, 2)))  # constant weights
        out = F.conv2d(x, w)
        out.sum().backward()
        # each interior input pixel participates in several windows
        assert x.grad is not None
        assert x.grad[0, 0, 1, 1] == pytest.approx(4.0)
        assert x.grad[0, 0, 0, 0] == pytest.approx(1.0)


class TestMaxPool:
    def test_exact_tiling_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.numpy(), [[[[4.0]]]])

    def test_exact_tiling_grad_routes_to_max(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, [[[[0.0, 0.0], [0.0, 1.0]]]])

    def test_tie_gradient_split(self):
        x = Tensor(np.full((1, 1, 2, 2), 5.0), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 0.25))

    def test_strided_path_matches_reference(self, rng):
        x = rng.standard_normal((2, 3, 7, 7))
        out = F.max_pool2d(Tensor(x), 3, stride=2).numpy()
        # naive reference
        ref = np.zeros((2, 3, 3, 3))
        for i in range(3):
            for j in range(3):
                ref[:, :, i, j] = x[:, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3].max(axis=(2, 3))
        np.testing.assert_allclose(out, ref, rtol=1e-6)

    def test_strided_gradcheck(self, rng):
        # Use well-separated values so the argmax is stable under eps.
        x = Tensor(rng.permutation(np.arange(98.0)).reshape(2, 1, 7, 7))
        gradcheck(lambda a: F.max_pool2d(a, 3, stride=2), [x])

    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, 2)], ids=["tiling", "strided"])
    def test_no_grad_builds_no_graph(self, rng, kernel, stride):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        graphed = F.max_pool2d(x, kernel, stride)
        with no_grad():
            free = F.max_pool2d(x, kernel, stride)
        assert not free.requires_grad and free._backward is None and free._parents == ()
        assert np.array_equal(free.data, graphed.data)

    def test_gradient_layout_after_conv_relu_is_the_conv_outputs(self, rng):
        """conv -> ReLU -> pool: the pool writes its gradient channels-last
        like the conv output, and the values are unchanged."""
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        act = F.conv2d(x, w, padding=1).relu()
        F.max_pool2d(act, 2).sum().backward()
        assert act.grad.strides == act.data.strides != act.data.copy().strides
        leaf = Tensor(act.data.copy(), requires_grad=True)
        F.max_pool2d(leaf, 2).sum().backward()
        assert np.array_equal(act.grad, leaf.grad)

    def test_gradient_layout_elsewhere_is_numpys(self, rng):
        """Off the conv path a norm layer may reduce the gradient, so the
        pool keeps the layout NumPy gives the product it was recorded
        with (C order here, for a channels-last input)."""
        data = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
        x = Tensor(np.ascontiguousarray(data.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
                   requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        assert x.grad.flags.c_contiguous


class TestAvgPool:
    def test_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.numpy(), [[[[2.5]]]])

    def test_gradcheck(self, rng):
        gradcheck(lambda a: F.avg_pool2d(a, 2), [Tensor(rng.standard_normal((2, 2, 4, 4)))])

    def test_non_tiling_raises(self, rng):
        with pytest.raises(NotImplementedError, match=r"exact-tiling.*\(1, 1, 5, 5\)"):
            F.avg_pool2d(Tensor(rng.standard_normal((1, 1, 5, 5))), 2)

    def test_rejects_non_nchw_input(self, rng):
        with pytest.raises(ValueError, match=r"avg_pool2d expects a 4-D input.*\(2, 4, 4\)"):
            F.avg_pool2d(Tensor(rng.standard_normal((2, 4, 4))), 2)

    @pytest.mark.parametrize("kernel,stride", [(0, None), (2, -1)])
    def test_rejects_kernel_or_stride_below_one(self, rng, kernel, stride):
        with pytest.raises(ValueError, match=r"must be >= 1.*\(1, 1, 4, 4\)"):
            F.avg_pool2d(Tensor(rng.standard_normal((1, 1, 4, 4))), kernel, stride)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.numpy(), x.mean(axis=(2, 3)), rtol=1e-6)
