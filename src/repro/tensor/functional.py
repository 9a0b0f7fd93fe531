"""Differentiable functional layer primitives.

Everything here is a pure function from :class:`~repro.tensor.Tensor`
inputs to a ``Tensor`` output, with the backward pass registered on the
autograd graph. The :mod:`repro.nn` module layer classes are thin
stateful wrappers around these functions.

Convolutions use the classic im2col lowering: each sliding window is
unrolled into a row of one matrix so the convolution becomes one large
matrix multiply. The windows are a strided *view* of the (padded)
input, copied straight into the layout each GEMM wants; on small
CIFAR-scale inputs this is the fastest pure-NumPy strategy by a wide
margin.  The forward unroll is bounded: once the unrolled matrix would
pass :data:`COLS_BLOCK_BYTES` it is copied and multiplied a block of
whole samples at a time, into one preallocated output, so evaluating
at a large batch costs an 8 MiB window buffer, not a matrix of
``N * P * K`` elements (52 MB for the ``cnn`` model's second layer at
256 samples).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.tensor.autograd import is_grad_enabled
from repro.tensor.tensor import Tensor, _unbroadcast, as_tensor

__all__ = [
    "linear",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "binary_cross_entropy_with_logits",
    "dropout",
    "embedding",
    "one_hot",
]


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with PyTorch weight layout.

    ``weight`` has shape ``(out_features, in_features)`` so that model
    state-dicts match the layout the paper's PyTorch code would produce.

    One graph node for 2-D and batched ``x``.  It issues the NumPy calls
    of the ``matmul(x, weight.T) + bias`` graph it replaces, on operands
    in the same memory order: forward ``x @ weight.T`` then ``+ bias``;
    backward the bias gradient summed as the add node summed it, then
    ``g @ weight`` and ``(x.T @ g).T`` (batched inputs summed over their
    leading axes first, as ``_unbroadcast`` does).  The weight's share
    is the node's ``late`` closure, delivered where the unfused graph's
    transpose node delivered it, so a weight several nodes share sums
    its gradients in the same order.  Every value and every gradient is
    the unfused graph's, bit for bit.  A 1-D ``x`` takes the unfused
    graph.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    bias = None if bias is None else as_tensor(bias)
    if x.ndim < 2 or weight.ndim != 2:
        out = x.matmul(weight.transpose())
        return out if bias is None else out + bias
    # The arrays as they are now: a caller may rebind ``weight.data``
    # before backward runs (FedGen's teacher pass loads each client's
    # state into one model between forwards), and the unfused graph's
    # transpose node kept the array it was built from.
    x_data, w_data = x.data, weight.data
    product = x_data @ w_data.T
    out = product if bias is None else product + bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g) -> None:
        if bias is not None:
            bias._accumulate(g)
        if x.requires_grad:
            # The product's own gradient is ``g`` in the product's dtype
            # (the add node's ``_accumulate`` cast it there).
            x._accumulate(g.astype(product.dtype, copy=False) @ w_data, fresh=True)

    def backward_weight(g) -> None:
        if weight.requires_grad:
            g = g.astype(product.dtype, copy=False)
            grad_t = _unbroadcast(np.swapaxes(x_data, -1, -2) @ g, w_data.T.shape)
            weight._accumulate(grad_t.T, fresh=True)

    return Tensor._make(out, parents, backward, "linear", late=backward_weight)


# ----------------------------------------------------------------------
# Convolution via im2col
# ----------------------------------------------------------------------
#: Largest unrolled window matrix ``conv2d``'s forward copies at once.
#: Above it the windows are copied and multiplied in near-equal blocks
#: of whole samples.
COLS_BLOCK_BYTES = 8 << 20
#: Fewest GEMM rows a forward block may have.  Splitting the rows of a
#: large sgemm leaves every output element's bits as they were; a small
#: one can go to another kernel that rounds differently.
MIN_BLOCK_ROWS = 256


def _require_nchw(op: str, what: str, shape: tuple[int, ...]) -> None:
    if len(shape) != 4:
        raise ValueError(f"{op} expects a 4-D {what}, got shape {shape}")


@functools.lru_cache(maxsize=256, typed=True)
def window_plan(shape, strides, kh, kw, stride):
    """Shape and strides of the sliding-window view of an NCHW array.

    ``(shape, strides)`` describe the ``(N, out_h, out_w, C, kh, kw)``
    view of an array with the given ``shape`` / ``strides`` whose
    ``[n, y, x, c, i, j]`` element is ``array[n, c, y*stride + i,
    x*stride + j]``.  This is the memory-safety boundary of
    :func:`sliding_windows`: geometry that would index outside the array
    is rejected here, before any view exists.  The cache holds these
    integer tuples only — never an array — so plans are safe to share
    between calls and threads.
    """
    if len(shape) != 4:
        raise ValueError(f"sliding windows need a 4-D NCHW array, got shape {shape}")
    n, c, h, w = shape
    if stride < 1 or kh < 1 or kw < 1:
        raise ValueError(
            f"sliding windows need kernel and stride >= 1, got kernel ({kh}, {kw}), "
            f"stride {stride} (input shape {shape})"
        )
    if kh > h or kw > w:
        raise ValueError(
            f"kernel ({kh}, {kw}) is larger than the (padded) input: shape {shape}"
        )
    s_n, s_c, s_h, s_w = strides
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    return (n, out_h, out_w, c, kh, kw), (s_n, stride * s_h, stride * s_w, s_c, s_h, s_w)


def sliding_windows(array, kh: int, kw: int, stride: int):
    """Read-only ``(N, out_h, out_w, C, kh, kw)`` view of NCHW ``array``.

    No data moves: every ``kh x kw`` window at ``stride`` is a stride
    pattern over ``array``'s own memory (:func:`window_plan` checks it
    stays inside it).  The im2col lowering of :func:`conv2d` and the
    general :func:`max_pool2d` path copy out of this view once.
    """
    shape, strides = window_plan(array.shape, array.strides, kh, kw, stride)
    return np.lib.stride_tricks.as_strided(
        array, shape=shape, strides=strides, writeable=False
    )


def _scatter_windows(grad, grad_windows, stride: int) -> None:
    """Add ``(N, out_h, out_w, C, kh, kw)`` window gradients into NCHW ``grad``.

    The adjoint of ``sliding_windows`` (col2im).  An input pixel lies in
    up to ``kh * kw`` windows, and the bits of its gradient depend on
    the order they are summed in: ascending kernel offset ``(i, j)``,
    the order every golden was recorded with.  Walking the output rows
    last-to-first visits a pixel's ``i`` ascending, so one slice-add per
    (output row, kernel column) keeps that order while reading one
    row's worth of ``grad_windows`` at a time instead of striding over
    all of it once per kernel offset.
    """
    _, out_h, out_w, _, kh, kw = grad_windows.shape
    for oy in reversed(range(out_h)):
        rows = slice(stride * oy, stride * oy + kh)
        for j in range(kw):
            # (N, out_w, C, kh) -> (N, C, kh, out_w)
            grad[:, :, rows, j : j + stride * out_w : stride] += grad_windows[
                :, oy, :, :, :, j
            ].transpose(0, 2, 3, 1)


def sample_blocks(n: int, p: int, k: int, itemsize: int) -> list[int]:
    """Sample bounds of the blocks ``conv2d``'s forward unrolls at once.

    ``n`` samples of ``p`` windows of ``k`` elements each.  One block
    while the whole ``(n*p, k)`` matrix fits :data:`COLS_BLOCK_BYTES`;
    above it, the fewest near-equal blocks that each fit it, but never
    so many that a block has fewer than :data:`MIN_BLOCK_ROWS` rows.
    Block ``b`` is samples ``bounds[b]:bounds[b + 1]``.
    """
    fit = max(1, COLS_BLOCK_BYTES // (p * k * itemsize))  # samples within the budget
    floor = -(-MIN_BLOCK_ROWS // p)  # samples that make the row floor
    blocks = max(1, min(-(-n // fit), n // floor))
    return [b * n // blocks for b in range(blocks + 1)]


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation over NCHW input.

    Parameters
    ----------
    x: ``(N, C_in, H, W)`` input.
    weight: ``(C_out, C_in, kH, kW)`` filters.
    bias: optional ``(C_out,)``.

    Lowered to three GEMMs over ``cols``, the ``(N*P, K)`` matrix of
    unrolled windows (``P = out_h * out_w``, ``K = C_in * kH * kW``):
    ``cols @ w.T`` forward, ``cols.T @ g`` and ``g @ w`` backward.  The
    output is channels-last in memory, handed out as an NCHW view — the
    layout the forward GEMM produces, and the one the exact-tiling pool
    that usually follows reduces over more than 10x faster than a
    C-ordered copy.

    Above :data:`COLS_BLOCK_BYTES` the forward ``cols`` is unrolled and
    multiplied a block of whole samples at a time (:func:`sample_blocks`;
    a lone sample or a lone window per sample is unrolled whole), each
    block's product written into its rows of one ``(N*P, C_out)``
    output.  This keeps the bits: an output element is one row of
    ``cols`` dotted with one column of ``w.T``, and a GEMM of at least
    :data:`MIN_BLOCK_ROWS` rows sums that dot the same way whichever
    rows share the call (held to the seed kernel with ``array_equal`` by
    ``tests/tensor/test_conv_oracle.py``).  The fc layers' GEMMs are not
    split: ``(256, 512) @ (512, 10)`` rounds differently in 64-row
    pieces.  Backward unrolls from the window view again, in whole.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    _require_nchw("conv2d", "input (N, C_in, H, W)", x.shape)
    _require_nchw("conv2d", "weight (C_out, C_in, kH, kW)", weight.shape)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d channel mismatch: input has {c_in}, weight expects {c_in_w}")
    if padding < 0:
        raise ValueError(f"conv2d padding must be >= 0, got {padding} (input shape {x.shape})")

    if padding:
        x_pad = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        x_pad = x.data
    hp, wp = x_pad.shape[2], x_pad.shape[3]
    # Rejects a stride or kernel that does not fit before any view exists.
    windows = sliding_windows(x_pad, kh, kw, stride)  # (N, out_h, out_w, C, kh, kw)
    out_h, out_w = windows.shape[1], windows.shape[2]
    p, k = out_h * out_w, c_in * kh * kw

    def k_major_cols():
        """The windows unrolled into a fresh ``(K, N*P)`` matrix."""
        return windows.transpose(3, 4, 5, 0, 1, 2).copy().reshape(k, n * p)

    # im2col: copies out of the window view.  Small GEMMs round
    # differently on a transposed operand, so every operand is laid out
    # the way the recorded goldens multiplied it: window-major rows
    # here — K-major, transposed, when N*P is a single axis — and
    # K-major rows for the weight gradient.  Only the view is kept for
    # backward (it reads the input again, as matmul's backward does).
    w_mat = weight.data.reshape(c_out, k)
    if n == 1 or p == 1:
        out_mat = k_major_cols().T @ w_mat.T  # (N*P, C_out)
    else:
        out_mat = np.empty((n * p, c_out), dtype=np.result_type(windows, w_mat))
        bounds = sample_blocks(n, p, k, windows.itemsize)
        for lo, hi in zip(bounds, bounds[1:]):
            cols = windows[lo:hi].copy().reshape((hi - lo) * p, k)
            np.matmul(cols, w_mat.T, out=out_mat[lo * p : hi * p])
            del cols  # freed before the next block is copied
    if bias is not None:
        out_mat += bias.data
    out = out_mat.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g) -> None:
        g = np.asarray(g)  # (N, C_out, out_h, out_w)
        # A view when g is channels-last like ``out`` (the ReLU and
        # pool that usually follow hand it back that way); one copy
        # otherwise.  Either way the GEMMs see the same operand layout.
        g_mat = g.transpose(0, 2, 3, 1).reshape(n * p, c_out)
        if weight.requires_grad:
            grad_w = k_major_cols() @ g_mat  # (K, C_out)
            weight._accumulate(grad_w.T.reshape(weight.shape), fresh=True)
        if bias is not None and bias.requires_grad:
            # A reduction sums in memory order: it must see g C-ordered,
            # the layout the goldens were recorded with, whatever layout
            # g arrived in.
            bias._accumulate(np.ascontiguousarray(g).sum(axis=(0, 2, 3)), fresh=True)
        if x.requires_grad:
            grad_cols = g_mat @ w_mat  # (N*P, K)
            grad_pad = np.zeros((n, c_in, hp, wp), dtype=x.data.dtype)
            _scatter_windows(
                grad_pad, grad_cols.reshape(n, out_h, out_w, c_in, kh, kw), stride
            )
            if padding:
                grad_pad = grad_pad[:, :, padding:-padding, padding:-padding]
            x._accumulate(grad_pad, fresh=True)  # copied when padded: never pinned

    return Tensor._make(out, parents, backward, "conv2d")


def _layout_free_to_conv(t: Tensor) -> bool:
    """Whether ``t``'s gradient reaches a ``conv2d`` through ReLUs alone.

    Such a gradient may arrive in any layout with the same bits: ReLU
    is elementwise, and ``conv2d`` feeds its GEMMs one operand layout
    either way and reduces its bias over a C-ordered copy.  Elsewhere a
    reduction may sum the gradient in memory order, so its layout is
    part of the recorded bits.
    """
    while t._op == "relu":
        t = t._parents[0]
    return t._op == "conv2d"


def max_pool2d(x: Tensor, kernel_size: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows, NCHW."""
    x = as_tensor(x)
    _require_nchw("max_pool2d", "input (N, C, H, W)", x.shape)
    stride = stride or kernel_size
    if kernel_size < 1 or stride < 1:
        raise ValueError(
            f"max_pool2d kernel_size and stride must be >= 1, got "
            f"kernel_size={kernel_size}, stride={stride} (input shape {x.shape})"
        )
    n, c, h, w = x.shape

    if stride == kernel_size and h % kernel_size == 0 and w % kernel_size == 0:
        # Fast reshape-based path for the common exact-tiling case.
        out_h, out_w = h // kernel_size, w // kernel_size
        tiles = (n, c, out_h, kernel_size, out_w, kernel_size)
        reshaped = x.data.reshape(tiles)  # splits axes only: a view in any layout
        out = reshaped.max(axis=(3, 5))
        if not (is_grad_enabled() and x.requires_grad):
            return Tensor(out)
        maxes = out[:, :, :, None, :, None]
        mask = (reshaped == maxes).astype(x.data.dtype)
        # Break ties: distribute gradient evenly among tied maxima.
        share = mask / mask.sum(axis=(3, 5), keepdims=True)  # in x's layout
        own_layout = _layout_free_to_conv(x)

        def backward(g) -> None:
            g = np.asarray(g)
            if own_layout:
                # Everything in x's layout (channels-last after a conv):
                # this product runs over matched layouts, and so do the
                # ReLU and the conv upstream.  Only g, a quarter of the
                # size, is copied across.
                g_own = np.empty_like(out)
                g_own[...] = g
                grad = np.empty_like(x.data)
                np.multiply(share, g_own[:, :, :, None, :, None], out=grad.reshape(tiles))
            else:
                # NumPy's choice of layout, which reductions upstream
                # (a norm layer's) were recorded summing over.
                grad = (share * g[:, :, :, None, :, None]).reshape(n, c, h, w)
            x._accumulate(grad, fresh=True)

        return Tensor._make(out, (x,), backward, "max_pool2d")

    # General strided path over the same window view conv2d unrolls.
    windows = sliding_windows(x.data, kernel_size, kernel_size, stride)
    out_h, out_w = windows.shape[1], windows.shape[2]
    # (N, C, k*k, P): window elements in ascending (i, j) order, so a
    # tie goes to the first maximum in that order.
    cols = windows.transpose(0, 3, 4, 5, 1, 2).reshape(n, c, kernel_size * kernel_size, -1)
    arg = cols.argmax(axis=2)  # (N, C, P)
    out = np.take_along_axis(cols, arg[:, :, None, :], 2).squeeze(2)
    out = out.reshape(n, c, out_h, out_w)

    def backward_general(g) -> None:
        g = np.asarray(g).reshape(n, c, -1)
        grad_cols = np.zeros((n, c, kernel_size * kernel_size, g.shape[-1]), dtype=x.data.dtype)
        np.put_along_axis(grad_cols, arg[:, :, None, :], g[:, :, None, :], 2)
        grad_cols = grad_cols.reshape(n, c, kernel_size, kernel_size, out_h, out_w)
        grad = np.zeros_like(x.data)
        _scatter_windows(grad, grad_cols.transpose(0, 4, 5, 1, 2, 3), stride)
        x._accumulate(grad, fresh=True)

    return Tensor._make(out, (x,), backward_general, "max_pool2d")


def avg_pool2d(x: Tensor, kernel_size: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over NCHW input (exact-tiling windows only)."""
    x = as_tensor(x)
    _require_nchw("avg_pool2d", "input (N, C, H, W)", x.shape)
    stride = stride or kernel_size
    if kernel_size < 1 or stride < 1:
        raise ValueError(
            f"avg_pool2d kernel_size and stride must be >= 1, got "
            f"kernel_size={kernel_size}, stride={stride} (input shape {x.shape})"
        )
    n, c, h, w = x.shape
    if stride == kernel_size and h % kernel_size == 0 and w % kernel_size == 0:
        out_h, out_w = h // kernel_size, w // kernel_size
        reshaped = x.data.reshape(n, c, out_h, kernel_size, out_w, kernel_size)
        out = reshaped.mean(axis=(3, 5))
        scale = 1.0 / (kernel_size * kernel_size)

        def backward(g) -> None:
            g6 = np.asarray(g)[:, :, :, None, :, None]
            grad = np.broadcast_to(g6 * scale, (n, c, out_h, kernel_size, out_w, kernel_size))
            x._accumulate(grad.reshape(n, c, h, w))

        return Tensor._make(out, (x,), backward, "avg_pool2d")
    raise NotImplementedError(
        f"avg_pool2d only supports exact-tiling windows (stride == kernel_size dividing "
        f"H and W), got kernel_size={kernel_size}, stride={stride} (input shape {x.shape})"
    )


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial axes: ``(N, C, H, W) -> (N, C)``."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def _tracks(x: Tensor) -> bool:
    """Whether an op on ``x`` builds a graph node (its backward can run)."""
    return is_grad_enabled() and x.requires_grad


def _log_softmax_values(x, axis: int):
    """Numerically-stable log-softmax of the array ``x`` along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - log_z


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax with a fused backward pass."""
    x = as_tensor(x)
    out = _log_softmax_values(x.data, axis)
    if not _tracks(x):
        return Tensor(out)
    softmax_vals = np.exp(out)  # backward-only work

    def backward(g) -> None:
        g = np.asarray(g)
        x._accumulate(g - softmax_vals * g.sum(axis=axis, keepdims=True), fresh=True)

    return Tensor._make(out, (x,), backward, "log_softmax")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax with a fused backward pass."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    if not _tracks(x):
        return Tensor(out)

    def backward(g) -> None:
        g = np.asarray(g)
        inner = (g * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (g - inner), fresh=True)

    return Tensor._make(out, (x,), backward, "softmax")


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float32) -> np.ndarray:
    """Plain ndarray one-hot encoding of integer labels (host helper)."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, num_classes), dtype=dtype)
    out[np.arange(labels.size), labels.reshape(-1)] = 1.0
    return out.reshape(labels.shape + (num_classes,))


def _nll_terms(log_probs, targets, reduction: str):
    """``(value, rows, targets, scale)`` of the NLL of ``log_probs`` (an array)."""
    targets = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets, dtype=np.int64
    )
    n = log_probs.shape[0]
    rows = np.arange(n)
    picked = log_probs[rows, targets]
    if reduction == "mean":
        value, scale = -picked.mean(), 1.0 / n
    elif reduction == "sum":
        value, scale = -picked.sum(), 1.0
    else:
        raise ValueError(f"unknown reduction {reduction!r}")
    return np.asarray(value, dtype=log_probs.dtype), rows, targets, scale


def _nll_grad(g, like, rows, targets, scale):
    """The NLL node's gradient with respect to its log-probabilities."""
    grad = np.zeros_like(like)
    grad[rows, targets] = -float(np.asarray(g)) * scale
    return grad


def nll_loss(log_probs: Tensor, targets, reduction: str = "mean") -> Tensor:
    """Negative log likelihood given ``log_softmax`` outputs.

    ``targets`` is an integer array (or integer Tensor) of shape ``(N,)``.
    """
    log_probs = as_tensor(log_probs)
    value, rows, targets, scale = _nll_terms(log_probs.data, targets, reduction)

    def backward(g) -> None:
        log_probs._accumulate(
            _nll_grad(g, log_probs.data, rows, targets, scale), fresh=True
        )

    return Tensor._make(value, (log_probs,), backward, "nll")


def cross_entropy(logits: Tensor, targets, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy from raw logits (the paper's classification loss).

    One graph node computing ``nll_loss(log_softmax(logits), targets)``
    with both nodes' arithmetic in their order — forward and backward,
    ``-g * scale`` scattered then ``grad - softmax * grad.sum`` — so the
    loss and the logits' gradient are the two-node graph's, bit for bit.
    The softmax backward reads is computed only when grad is on.
    """
    logits = as_tensor(logits)
    log_probs = _log_softmax_values(logits.data, -1)
    value, rows, targets, scale = _nll_terms(log_probs, targets, reduction)
    if not _tracks(logits):
        return Tensor(value)
    softmax_vals = np.exp(log_probs)

    def backward(g) -> None:
        grad = _nll_grad(g, log_probs, rows, targets, scale)
        logits._accumulate(grad - softmax_vals * grad.sum(axis=-1, keepdims=True), fresh=True)

    return Tensor._make(value, (logits,), backward, "cross_entropy")


def mse_loss(pred: Tensor, target, reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    pred = as_tensor(pred)
    target = as_tensor(target)
    diff = pred - target.detach()
    sq = diff * diff
    return sq.mean() if reduction == "mean" else sq.sum()


def binary_cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Stable BCE from logits: ``max(z,0) - z*y + log(1 + exp(-|z|))``."""
    logits = as_tensor(logits)
    z = logits.data
    y = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets, dtype=z.dtype
    )
    value = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out_val = value.mean()
    # Stable sigmoid: exp only ever sees non-positive arguments.
    pos = z >= 0
    ez = np.exp(np.where(pos, -z, z))
    sig = np.where(pos, 1.0 / (1.0 + ez), ez / (1.0 + ez))

    def backward(g) -> None:
        g = float(np.asarray(g))
        logits._accumulate(g * (sig - y) / z.size, fresh=True)

    return Tensor._make(np.asarray(out_val, dtype=z.dtype), (logits,), backward, "bce_logits")


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = as_tensor(x)
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    out = x.data * mask

    def backward(g) -> None:
        x._accumulate(np.asarray(g) * mask, fresh=True)

    return Tensor._make(out, (x,), backward, "dropout")


def embedding(indices, weight: Tensor) -> Tensor:
    """Lookup rows of ``weight`` (``(vocab, dim)``) by integer ``indices``.

    ``indices`` may be an integer array or an integer :class:`Tensor`
    (layers normalise through :func:`~repro.tensor.tensor.as_tensor`).
    """
    weight = as_tensor(weight)
    idx = np.asarray(
        indices.data if isinstance(indices, Tensor) else indices, dtype=np.int64
    )
    out = weight.data[idx]

    def backward(g) -> None:
        grad = np.zeros_like(weight.data)
        np.add.at(grad, idx.reshape(-1), np.asarray(g).reshape(-1, weight.shape[1]))
        weight._accumulate(grad, fresh=True)

    return Tensor._make(out, (weight,), backward, "embedding")
