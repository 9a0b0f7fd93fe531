"""Stochastic gradient descent with momentum.

Matches ``torch.optim.SGD`` semantics (momentum buffer ``b <- m b + g``,
update ``p <- p - lr b``; Nesterov variant supported) so the paper's
"SGD, lr 0.01, momentum 0.5" client configuration transfers unchanged.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.module import Parameter

__all__ = ["SGD"]

#: The one cross-layout update (see ``SGD.step``) runs in blocks of this
#: many columns once the gradient is this large; below that one pass is
#: faster (2 MiB measured on a 2-core x86 host, blocking 1.7x faster
#: above it and up to 7x slower well below).
_BLOCK_COLS = 64
_BLOCK_MIN_BYTES = 2 << 20


class SGD:
    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if nesterov and momentum <= 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._buffers: list[np.ndarray | None] = [None] * len(self.params)
        # One reused array per parameter holding ``lr * update``.
        self._scratch: list[np.ndarray | None] = [None] * len(self.params)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update using the gradients currently on the params.

        In place: the momentum buffer and the parameter's own array are
        updated with the same elementwise arithmetic, in the same order,
        as ``buf = m * buf + g; p = p - lr * buf`` — the same bits,
        without a full-size temporary per operator.  ``p.grad`` is only
        read.

        The update never changes a parameter's dtype: a wider-precision
        gradient (e.g. SCAFFOLD's float64 control-variate correction)
        is applied in its own precision and the result rounded back.
        Without this, one float64 gradient would silently promote the
        shared model template, leaking extra precision into *subsequent*
        training legs and evaluations — making results depend on which
        clients previously touched the template (and breaking
        bit-reproducibility across execution backends).
        """
        for i, p in enumerate(self.params):
            grad = p.grad
            if grad is None:
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                buf = self._buffers[i]
                if buf is None:
                    # order="K": gradients often arrive transposed in
                    # memory (a linear layer's does), and elementwise ops
                    # on matching layouts are an order of magnitude faster.
                    buf = self._buffers[i] = grad.copy(order="K")
                elif buf.dtype == grad.dtype:
                    buf *= self.momentum
                    buf += grad
                else:
                    # A hook started widening the gradient mid-run:
                    # follow it rather than round into the old buffer.
                    buf = self._buffers[i] = self.momentum * buf + grad
                grad = grad + self.momentum * buf if self.nesterov else buf
            scratch = self._scratch[i]
            if scratch is None or scratch.dtype != grad.dtype:
                scratch = self._scratch[i] = np.empty_like(grad)
            np.multiply(grad, self.lr, out=scratch)
            # Computed in the wider of the two dtypes, rounded once into
            # the parameter's own array.
            if (
                scratch.ndim == 2
                and scratch.nbytes >= _BLOCK_MIN_BYTES
                and p.data.flags.c_contiguous
                and not scratch.flags.c_contiguous
            ):
                # A linear layer's gradient arrives F-ordered, so one
                # pass strides through one operand; past the cache that
                # costs more than the arithmetic.  Column blocks keep
                # both in cache (1.7 -> 1.0 ms on a 512x1024 weight);
                # elementwise, so the bits are the same.
                for j in range(0, scratch.shape[1], _BLOCK_COLS):
                    p.data[:, j : j + _BLOCK_COLS] -= scratch[:, j : j + _BLOCK_COLS]
            else:
                p.data -= scratch

    def reset_state(self) -> None:
        """Drop momentum buffers and scratch (used when a client receives new weights)."""
        self._buffers = [None] * len(self.params)
        self._scratch = [None] * len(self.params)
