"""The seed kernels, kept as the test oracle.

The conv / general-path max-pool kernels ``repro.tensor.functional``
shipped before the strided-window lowering: fancy-index im2col, three
``einsum(optimize=True)`` contractions and an ``np.add.at`` scatter.
They are slow and allocate a lot, but they define the bits every golden
in the repository was recorded with, so ``test_conv_oracle.py`` holds
the shipped kernels to them with ``np.array_equal`` — output, input
gradient, weight gradient, bias gradient.

The unfused ``linear`` and ``cross_entropy`` graphs: matmul, transpose
and add nodes; a log-softmax node and an NLL node.  The shipped fused
nodes issue the same NumPy calls in the same order, so
``test_fused_oracle.py`` holds them to these with ``np.array_equal``.

Raw NumPy on purpose (this is the pre-dispatch code path); not
collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor, as_tensor


def im2col_indices(x_shape, kh, kw, stride):
    """(k, i, j) fancy indices unrolling padded NCHW windows into columns.

    ``x[:, k, i, j]`` has shape ``(N, C*kh*kw, out_h*out_w)``.
    """
    _, c, h, w = x_shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)

    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return k, i, j


def seed_conv2d(x, weight, bias=None, stride=1, padding=0) -> Tensor:
    """The seed ``conv2d``: gather, three einsums, ``add.at``."""
    x = as_tensor(x)
    weight = as_tensor(weight)
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape

    if padding:
        x_pad = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        x_pad = x.data
    hp, wp = x_pad.shape[2], x_pad.shape[3]
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1

    k_idx, i_idx, j_idx = im2col_indices(x_pad.shape, kh, kw, stride)
    cols = x_pad[:, k_idx, i_idx, j_idx]  # (N, C*kh*kw, out_h*out_w)
    w_mat = weight.data.reshape(c_out, -1)
    out = np.einsum("ok,nkp->nop", w_mat, cols, optimize=True)
    out = out.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g) -> None:
        g = np.asarray(g)
        g_mat = g.reshape(n, c_out, -1)
        if weight.requires_grad:
            grad_w = np.einsum("nop,nkp->ok", g_mat, cols, optimize=True)
            weight._accumulate(grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            grad_cols = np.einsum("ok,nop->nkp", w_mat, g_mat, optimize=True)
            grad_pad = np.zeros((n, c_in, hp, wp), dtype=x.data.dtype)
            np.add.at(grad_pad, (slice(None), k_idx, i_idx, j_idx), grad_cols)
            if padding:
                grad_pad = grad_pad[:, :, padding:-padding, padding:-padding]
            x._accumulate(grad_pad)

    return Tensor._make(out, parents, backward, "conv2d")


def seed_max_pool2d_general(x, kernel_size=2, stride=None) -> Tensor:
    """The seed ``max_pool2d`` general (non-tiling) path, always taken."""
    x = as_tensor(x)
    stride = stride or kernel_size
    n, c, h, w = x.shape
    out_h = (h - kernel_size) // stride + 1
    out_w = (w - kernel_size) // stride + 1

    k_idx, i_idx, j_idx = im2col_indices((n, c, h, w), kernel_size, kernel_size, stride)
    cols = x.data[:, k_idx, i_idx, j_idx]
    cols = cols.reshape(n, c, kernel_size * kernel_size, -1)
    arg = cols.argmax(axis=2)
    out = np.take_along_axis(cols, arg[:, :, None, :], axis=2).squeeze(2)
    out = out.reshape(n, c, out_h, out_w)

    def backward(g) -> None:
        g = np.asarray(g).reshape(n, c, -1)
        grad_cols = np.zeros((n, c, kernel_size * kernel_size, g.shape[-1]), dtype=x.data.dtype)
        np.put_along_axis(grad_cols, arg[:, :, None, :], g[:, :, None, :], axis=2)
        grad_cols = grad_cols.reshape(n, c * kernel_size * kernel_size, -1)
        grad = np.zeros_like(x.data)
        np.add.at(grad, (slice(None), k_idx, i_idx, j_idx), grad_cols)
        x._accumulate(grad)

    return Tensor._make(out, (x,), backward, "max_pool2d")


def seed_linear(x, weight, bias=None) -> Tensor:
    """The seed ``linear``: ``matmul(x, weight.transpose()) + bias``, three nodes."""
    out = as_tensor(x).matmul(as_tensor(weight).transpose())
    return out if bias is None else out + bias


def seed_log_softmax(x, axis=-1) -> Tensor:
    """The seed ``log_softmax`` node (softmax kept for backward even without grad)."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_z
    softmax_vals = np.exp(out)

    def backward(g) -> None:
        g = np.asarray(g)
        x._accumulate(g - softmax_vals * g.sum(axis=axis, keepdims=True), fresh=True)

    return Tensor._make(out, (x,), backward, "log_softmax")


def seed_nll_loss(log_probs, targets, reduction="mean") -> Tensor:
    """The seed ``nll_loss`` node."""
    log_probs = as_tensor(log_probs)
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.shape[0]
    rows = np.arange(n)
    picked = log_probs.data[rows, targets]
    if reduction == "mean":
        value = -picked.mean()
        scale = 1.0 / n
    elif reduction == "sum":
        value = -picked.sum()
        scale = 1.0
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(g) -> None:
        g = float(np.asarray(g))
        grad = np.zeros_like(log_probs.data)
        grad[rows, targets] = -g * scale
        log_probs._accumulate(grad, fresh=True)

    return Tensor._make(np.asarray(value, dtype=log_probs.dtype), (log_probs,), backward, "nll")


def seed_cross_entropy(logits, targets, reduction="mean") -> Tensor:
    """The seed ``cross_entropy``: a log-softmax node, then an NLL node."""
    return seed_nll_loss(seed_log_softmax(logits, axis=-1), targets, reduction=reduction)
