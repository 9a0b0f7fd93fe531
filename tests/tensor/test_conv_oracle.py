"""The shipped conv / pool kernels against the seed kernels, bit for bit.

``_seed_kernels.py`` holds the lowering every golden in the repository
was recorded with (fancy-index im2col, ``einsum(optimize=True)``,
``np.add.at``).  The shipped kernels issue the same GEMMs on operands
laid out the same way and sum each input pixel's gradient in the same
order, so they must agree with ``np.array_equal`` — not ``allclose`` —
on the output and on every gradient.  CI runs this file at the default
BLAS thread count and at ``OPENBLAS_NUM_THREADS=1``.

Above ``COLS_BLOCK_BYTES`` the shipped forward unrolls and multiplies
its windows a block of samples at a time; the evaluation-batch cells
hold those blocked GEMMs to the seed's one, and a tracemalloc cell
keeps the whole unrolled matrix from coming back.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from _seed_kernels import seed_conv2d, seed_max_pool2d_general

from repro.tensor import Tensor, functional as F, no_grad
from repro.tensor.functional import (
    COLS_BLOCK_BYTES,
    MIN_BLOCK_ROWS,
    sample_blocks,
    window_plan,
)


def _channels_last(x):
    """Same values, channels-last in memory, handed out as an NCHW view."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _layout(a):
    """Memory layout up to axes of length one (their strides are arbitrary)."""
    return tuple(s for s, d in zip(a.strides, a.shape) if d != 1)


def _conv_case(conv, x, w, b, stride, padding, x_grad):
    xt = Tensor(x, requires_grad=x_grad)
    wt = Tensor(w, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    out = conv(xt, wt, bt, stride=stride, padding=padding)
    g = np.random.default_rng(99).standard_normal(out.shape).astype(x.dtype)
    out.backward(g)
    return {
        "out": out.data,
        "grad_x": xt.grad,
        "grad_w": wt.grad,
        "grad_b": None if bt is None else bt.grad,
    }


def _assert_conv_bitwise(x, w, b, stride, padding, x_grad=True, layouts=True, label=""):
    got = _conv_case(F.conv2d, x, w, b, stride, padding, x_grad)
    ref = _conv_case(seed_conv2d, x, w, b, stride, padding, x_grad)
    for name, want in ref.items():
        have = got[name]
        if want is None:
            assert have is None, f"{label} {name}"
            continue
        assert have.dtype == want.dtype, f"{label} {name}"
        assert np.array_equal(have, want), f"{label} {name} differs from the seed kernel"
        if layouts:
            # Downstream reductions sum in memory order, so a layout
            # change would move bits one op later.
            assert _layout(have) == _layout(want), f"{label} {name} layout"


def _operands(rng, batch, c_in, c_out, hw, kernel, padding, dtype=np.float32):
    h, w_ = hw
    kh, kw = (h + 2 * padding, w_ + 2 * padding) if kernel == "input" else (kernel, kernel)
    x = rng.standard_normal((batch, c_in, h, w_)).astype(dtype)
    w = (rng.standard_normal((c_out, c_in, kh, kw)) * 0.2).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype)
    return x, w, b


GRID = list(itertools.product((1, 20), (1, 2), (0, 1, 2), (1, 3, 5, "input")))


class TestConvMatchesSeedKernel:
    @pytest.mark.parametrize("batch,stride,padding,kernel", GRID)
    def test_grid_bitwise(self, rng, batch, stride, padding, kernel):
        """Non-square input; every variant of bias / input grad / layout."""
        x, w, b = _operands(rng, batch, 3, 4, (7, 10), kernel, padding)
        # One sample and one window leave nothing to contract over: the
        # seed's einsum wrote that weight gradient with a broadcast
        # multiply, in another memory order.  Same values.
        layouts = not (batch == 1 and kernel == "input")
        for bias, x_grad, strided in itertools.product((b, None), (True, False), (False, True)):
            _assert_conv_bitwise(
                _channels_last(x) if strided else x, w, bias, stride, padding, x_grad, layouts,
                label=f"bias={bias is not None} x_grad={x_grad} channels_last={strided}",
            )

    @pytest.mark.parametrize("batch", [1, 20])
    @pytest.mark.parametrize("kernel", [3, "input"])
    def test_float64_bitwise(self, rng, batch, kernel):
        """The gradcheck dtype takes the same path."""
        x, w, b = _operands(rng, batch, 2, 3, (6, 6), kernel, 1, dtype=np.float64)
        _assert_conv_bitwise(x, w, b, 1, 1, layouts=not (batch == 1 and kernel == "input"))

    @pytest.mark.parametrize(
        "shape,c_out",
        [((20, 3, 16, 16), 32), ((20, 32, 8, 8), 64)],
        ids=["cnn-conv1", "cnn-conv2"],
    )
    def test_benchmark_shapes_bitwise(self, rng, shape, c_out):
        """The two layers of the ``cnn`` workloads: large-GEMM kernels."""
        x = rng.standard_normal(shape).astype(np.float32)
        w = (rng.standard_normal((c_out, shape[1], 5, 5)) * 0.1).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        _assert_conv_bitwise(x, w, b, 1, 2)

    @pytest.mark.parametrize("c_in,c_out,kernel", [(3, 1, 3), (1, 4, 1), (1, 1, 1), (2, 16, 3)])
    def test_degenerate_channel_counts_bitwise(self, rng, c_in, c_out, kernel):
        """One output channel / a length-one contraction: values still
        match (the seed's ``einsum`` fell back to a broadcast multiply
        there and chose another output layout, so layouts are not
        compared)."""
        for batch in (1, 5):
            x, w, b = _operands(rng, batch, c_in, c_out, (6, 6), kernel, 0)
            _assert_conv_bitwise(x, w, b, 1, 0, layouts=False, label=f"batch={batch}")

    def test_same_shape_twice_in_one_graph(self, rng):
        """A ResNet basic block runs one conv shape twice; each call
        must save its own columns (the plan cache holds no data)."""
        x = rng.standard_normal((4, 6, 8, 8)).astype(np.float32)
        w1 = (rng.standard_normal((6, 6, 3, 3)) * 0.2).astype(np.float32)
        w2 = (rng.standard_normal((6, 6, 3, 3)) * 0.2).astype(np.float32)

        def block(conv):
            xt = Tensor(x, requires_grad=True)
            a, b = Tensor(w1, requires_grad=True), Tensor(w2, requires_grad=True)
            out = (conv(conv(xt, a, padding=1).relu(), b, padding=1) + xt).relu()
            out.sum().backward()
            return out.data, xt.grad, a.grad, b.grad

        for have, want in zip(block(F.conv2d), block(seed_conv2d)):
            assert np.array_equal(have, want)

    def test_output_is_channels_last_in_memory(self, rng):
        """Pins the output layout: channel stride == itemsize.

        The exact-tiling max-pool that follows every conv in the CNN /
        VGG models reduces ``reshaped.max(axis=(3, 5))`` more than 10x
        faster on this layout than on a C-contiguous NCHW array (0.3 ms
        vs 3.9 ms for this shape), and reductions downstream sum in
        memory order — tidying the output to C order gives back part of
        the kernel's gain and moves bits.
        """
        x, w, b = _operands(rng, 20, 3, 32, (16, 16), 5, 2)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=2).data
        assert out.shape == (20, 32, 16, 16)
        assert out.strides == (32768, 4, 2048, 128)
        assert out.strides[1] == out.itemsize


def _eval_operands(rng, batch, shape, c_out):
    """A ``cnn`` layer's operands: 5x5 kernel, padding 2."""
    x = rng.standard_normal((batch, *shape)).astype(np.float32)
    w = (rng.standard_normal((c_out, shape[0], 5, 5)) * 0.1).astype(np.float32)
    b = rng.standard_normal(c_out).astype(np.float32)
    return x, w, b


EVAL_CELLS = [
    pytest.param(batch, shape, c_out, id=f"{name}-n{batch}")
    for batch in (256, 144)
    for name, shape, c_out in (("conv1", (3, 16, 16), 32), ("conv2", (32, 8, 8), 64))
] + [pytest.param(97, (32, 8, 8), 64, id="conv2-n97-ragged")]


class TestBlockedUnrollMatchesSeedKernel:
    """The ``cnn`` workloads' evaluation shapes (``eval_batch_size`` 256,
    and a last batch of 144), whose unrolled matrix is over the block
    budget: blocked forward GEMMs against the seed's single one."""

    @pytest.mark.parametrize("batch,shape,c_out", EVAL_CELLS)
    def test_no_graph_bitwise(self, rng, batch, shape, c_out):
        x, w, b = _eval_operands(rng, batch, shape, c_out)
        c_in, h, w_ = shape
        assert len(sample_blocks(batch, h * w_, c_in * 25, 4)) > 2  # the cell runs blocked
        want = seed_conv2d(Tensor(x), Tensor(w), Tensor(b), padding=2).data
        with no_grad():
            have = F.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=2).data
        assert np.array_equal(have, want)
        assert _layout(have) == _layout(want)

    @pytest.mark.parametrize("batch,shape,c_out", EVAL_CELLS)
    def test_graph_bitwise(self, rng, batch, shape, c_out):
        x, w, b = _eval_operands(rng, batch, shape, c_out)
        _assert_conv_bitwise(x, w, b, 1, 2)

    @pytest.mark.parametrize(
        "n,p,k,bounds",
        [
            (20, 64, 800, [0, 20]),  # a cnn training batch: 4.1 MB, one block
            (256, 64, 800, [0, 36, 73, 109, 146, 182, 219, 256]),  # 40 samples fit 8 MiB
            (97, 64, 800, [0, 32, 64, 97]),  # the ragged oracle cell
            (256, 256, 75, [0, 85, 170, 256]),
            (130, 4, 1 << 20, [0, 65, 130]),  # 16 MiB a sample: the row floor sets the count
            (3, 4, 1 << 20, [0, 3]),  # too few rows to split at all
        ],
    )
    def test_block_bounds(self, n, p, k, bounds):
        """Whole samples in near-equal blocks, each within the budget
        unless a block would fall below the row floor."""
        assert sample_blocks(n, p, k, 4) == bounds
        sizes = np.diff(bounds)
        assert sizes.max() - sizes.min() <= 1
        assert len(sizes) == 1 or sizes.min() * p >= MIN_BLOCK_ROWS

    def test_no_graph_peak_stays_off_the_unrolled_matrix(self, rng):
        """A no-grad conv whose ``(N*P, K)`` matrix is 8x the budget
        allocates its output, the padded input and at most two blocks —
        whichever allocator serves them."""
        shape, c_out = (32, 8, 8), 64
        p, k = 8 * 8, 32 * 5 * 5
        batch = -(-8 * COLS_BLOCK_BYTES // (p * k * 4))
        x, w, b = _eval_operands(rng, batch, shape, c_out)
        x_t, w_t, b_t = Tensor(x), Tensor(w), Tensor(b)
        out_bytes = batch * p * c_out * 4
        padded_bytes = batch * 32 * 12 * 12 * 4
        bound = out_bytes + padded_bytes + 2 * COLS_BLOCK_BYTES
        assert batch * p * k * 4 > bound  # the whole matrix would break it
        tracemalloc.start()
        try:
            with no_grad():
                out = F.conv2d(x_t, w_t, b_t, padding=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (batch, c_out, 8, 8)
        assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


class TestMaxPoolGeneralPathMatchesSeedKernel:
    @pytest.mark.parametrize("kernel,stride", [(3, 2), (2, 1), (3, 1), (2, 3), (5, 5)])
    @pytest.mark.parametrize("ties", [False, True])
    def test_bitwise(self, rng, kernel, stride, ties):
        x = rng.standard_normal((3, 2, 7, 9)).astype(np.float32)
        if ties:
            x = np.round(x)  # many equal maxima: the first in (i, j) order wins
        results = []
        for pool in (F.max_pool2d, seed_max_pool2d_general):
            xt = Tensor(x, requires_grad=True)
            out = pool(xt, kernel, stride)
            out.backward(np.random.default_rng(5).standard_normal(out.shape).astype(np.float32))
            results.append((out.data, xt.grad))
        (out, grad), (ref_out, ref_grad) = results
        assert np.array_equal(out, ref_out)
        assert np.array_equal(grad, ref_grad)
        assert _layout(out) == _layout(ref_out) and _layout(grad) == _layout(ref_grad)


class TestWindowGuards:
    """Window geometry is checked before any strided view exists: with
    ``as_strided`` a bad shape would read out of bounds, not raise."""

    def test_conv_input_must_be_4d(self, rng):
        with pytest.raises(ValueError, match=r"conv2d expects a 4-D input.*\(3, 8, 8\)"):
            F.conv2d(Tensor(rng.standard_normal((3, 8, 8))), Tensor(np.ones((2, 3, 3, 3))))

    def test_conv_weight_must_be_4d(self, rng):
        with pytest.raises(ValueError, match=r"conv2d expects a 4-D weight.*\(2, 27\)"):
            F.conv2d(Tensor(rng.standard_normal((1, 3, 8, 8))), Tensor(np.ones((2, 27))))

    @pytest.mark.parametrize("stride", [0, -1])
    def test_conv_stride_below_one(self, rng, stride):
        x, w = Tensor(rng.standard_normal((1, 3, 8, 8))), Tensor(np.ones((2, 3, 3, 3)))
        with pytest.raises(ValueError, match=rf"stride {stride}.*\(1, 3, 8, 8\)"):
            F.conv2d(x, w, stride=stride)

    def test_conv_negative_padding(self, rng):
        x, w = Tensor(rng.standard_normal((1, 3, 8, 8))), Tensor(np.ones((2, 3, 3, 3)))
        with pytest.raises(ValueError, match=r"padding must be >= 0, got -1.*\(1, 3, 8, 8\)"):
            F.conv2d(x, w, padding=-1)

    def test_conv_kernel_larger_than_padded_input(self, rng):
        x, w = Tensor(rng.standard_normal((1, 3, 4, 4))), Tensor(np.ones((2, 3, 7, 7)))
        with pytest.raises(ValueError, match=r"kernel \(7, 7\) is larger.*\(1, 3, 6, 6\)"):
            F.conv2d(x, w, padding=1)
        assert F.conv2d(x, w, padding=2).shape == (1, 2, 2, 2)  # fits once padded enough

    def test_pool_input_must_be_4d(self, rng):
        with pytest.raises(ValueError, match=r"max_pool2d expects a 4-D input.*\(8, 8\)"):
            F.max_pool2d(Tensor(rng.standard_normal((8, 8))), 2)

    @pytest.mark.parametrize("kernel,stride", [(0, 1), (-2, 1), (2, -1)])
    def test_pool_kernel_and_stride_below_one(self, rng, kernel, stride):
        with pytest.raises(ValueError, match=r"must be >= 1.*\(1, 1, 6, 6\)"):
            F.max_pool2d(Tensor(rng.standard_normal((1, 1, 6, 6))), kernel, stride)

    def test_pool_kernel_larger_than_input(self, rng):
        with pytest.raises(ValueError, match=r"kernel \(5, 5\) is larger.*\(1, 1, 4, 4\)"):
            F.max_pool2d(Tensor(rng.standard_normal((1, 1, 4, 4))), 5, stride=2)

    def test_window_view_is_read_only_and_in_bounds(self, rng):
        x = rng.standard_normal((2, 3, 7, 9))
        windows = F.sliding_windows(x, 3, 2, 2)
        assert windows.shape == (2, 3, 4, 3, 3, 2)
        assert not windows.flags.writeable
        assert np.shares_memory(windows, x)
        # the last window ends on the array's last element it may touch
        assert np.array_equal(windows[1, 2, 3, 2], x[1, 2, 4:7, 6:8])

    @pytest.mark.parametrize("shape", [(8, 8), (1, 3, 8), (1, 1, 3, 8, 8)])
    def test_plan_rejects_non_4d(self, shape):
        strides = tuple(8 * s for s in range(len(shape), 0, -1))
        with pytest.raises(ValueError, match=r"4-D NCHW array"):
            window_plan(shape, strides, 2, 2, 1)

    @pytest.mark.parametrize("kh,kw,stride", [(0, 2, 1), (2, 0, 1), (2, 2, 0), (2, 2, -3)])
    def test_plan_rejects_kernel_or_stride_below_one(self, kh, kw, stride):
        with pytest.raises(ValueError, match=rf"kernel \({kh}, {kw}\), stride {stride}"):
            window_plan((1, 1, 4, 6), (192, 192, 48, 8), kh, kw, stride)

    @pytest.mark.parametrize("kh,kw", [(5, 2), (2, 7), (5, 7)])
    def test_plan_rejects_kernel_larger_than_input(self, kh, kw):
        with pytest.raises(ValueError, match=rf"kernel \({kh}, {kw}\) is larger"):
            window_plan((1, 1, 4, 6), (192, 192, 48, 8), kh, kw, 1)

    def test_plan_is_integer_tuples_and_cached(self):
        x = np.zeros((2, 3, 7, 9))
        args = (x.shape, x.strides, 3, 2, 2)
        shape, strides = window_plan(*args)
        assert shape == (2, 3, 4, 3, 3, 2)
        assert all(type(v) is int for v in shape + strides)
        hits = window_plan.cache_info().hits
        assert window_plan(*args) == (shape, strides)
        assert window_plan.cache_info().hits == hits + 1

    @pytest.mark.parametrize(
        "kh,kw,stride", [(1, 1, 1), (3, 3, 1), (2, 3, 2), (3, 2, 3), (7, 9, 1)]
    )
    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    def test_every_window_matches_slicing(self, rng, kh, kw, stride, layout):
        """Each ``[n, y, x, c]`` window is the slice it names, for a
        C-ordered input and for the channels-last view conv2d hands out."""
        x = rng.standard_normal((2, 3, 7, 9))
        if layout == "channels_last":
            x = _channels_last(x)
        windows = F.sliding_windows(x, kh, kw, stride)
        n, out_h, out_w, c = windows.shape[:4]
        assert (out_h, out_w) == ((7 - kh) // stride + 1, (9 - kw) // stride + 1)
        for b in range(n):
            for y in range(out_h):
                for col in range(out_w):
                    for ch in range(c):
                        np.testing.assert_array_equal(
                            windows[b, y, col, ch],
                            x[b, ch, y * stride : y * stride + kh, col * stride : col * stride + kw],
                        )

    def test_plan_cache_holds_tuples_not_arrays(self, rng):
        x = rng.standard_normal((2, 3, 7, 9))
        plan = window_plan(x.shape, x.strides, 3, 3, 1)
        assert plan is window_plan(x.shape, x.strides, 3, 3, 1)  # cached
        assert all(isinstance(v, int) for part in plan for v in part)
        assert window_plan.cache_info().maxsize is not None  # bounded
