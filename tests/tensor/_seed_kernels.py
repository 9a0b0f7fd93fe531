"""The seed conv / general-path max-pool kernels, kept as the test oracle.

These are the kernels ``repro.tensor.functional`` shipped before the
strided-window lowering: fancy-index im2col, three
``einsum(optimize=True)`` contractions and an ``np.add.at`` scatter.
They are slow and allocate a lot, but they define the bits every golden
in the repository was recorded with, so ``test_conv_oracle.py`` holds
the shipped kernels to them with ``np.array_equal`` — output, input
gradient, weight gradient, bias gradient.

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
