"""Stochastic gradient descent with momentum.

Matches ``torch.optim.SGD`` semantics (momentum buffer ``b <- m b + g``,
update ``p <- p - lr b``; Nesterov variant supported) so the paper's
"SGD, lr 0.01, momentum 0.5" client configuration transfers unchanged.

One update body (``SGD._update``) runs over one of two kinds of operand:

* **per parameter** — each parameter's own array and its ``.grad``;
* **over rows** — when the parameters are views of one ``data`` row and
  every gradient has landed in its view of a ``grad`` row of the same
  layout (:class:`ParamRows`; ``LocalTrainer`` binds both for a leg),
  one pass of whole-row ufuncs over each contiguous run of parameters,
  with the momentum buffer and the scratch as rows beside them.

The arithmetic is elementwise, so both give the same bits.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from repro.nn.module import Parameter

__all__ = ["SGD", "ParamRows"]


class ParamRows(NamedTuple):
    """Where a row-bound model's parameters and their gradients live.

    ``data`` and ``grad`` are rows of one layout.  ``fields[i]`` is the
    slice of both that holds the optimiser's ``params[i]``, and
    ``grads[i]`` is that parameter's gradient view of ``grad`` — the
    array its gradient lands in (``Tensor._grad_sink``).
    """

    data: np.ndarray
    grad: np.ndarray
    fields: tuple[slice, ...]
    grads: tuple[np.ndarray, ...]


def _runs(fields) -> list[slice]:
    """The contiguous runs the row slices ``fields`` cover, in row order."""
    runs: list[list[int]] = []
    for field in sorted(fields, key=lambda f: f.start):
        if runs and runs[-1][1] == field.start:
            runs[-1][1] = field.stop
        else:
            runs.append([field.start, field.stop])
    return [slice(start, stop) for start, stop in runs]


class SGD:
    """SGD with momentum, weight decay and Nesterov.

    ``lr``, ``momentum`` and ``weight_decay`` are plain attributes (LR
    schedulers set ``lr``); :meth:`configure` sets the three with the
    constructor's checks.  ``rows``, if given, lets :meth:`step` update
    the parameters over whole rows whenever every gradient is its view
    of ``rows.grad``; a step where one is not (a parameter the loss did
    not reach, a hook that rebound ``.grad``) and every later step until
    :meth:`reset_state` go per parameter.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
        *,
        rows: ParamRows | None = None,
    ) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.nesterov = nesterov
        self.configure(lr=lr, momentum=momentum, weight_decay=weight_decay)
        if rows is not None and len(rows.fields) != len(self.params):
            raise ValueError(
                f"rows describe {len(rows.fields)} parameters, the optimizer has "
                f"{len(self.params)}"
            )
        self.rows = rows
        self._spans = _runs(rows.fields) if rows is not None else []
        self._buf_row: np.ndarray | None = None
        self._scratch_row: np.ndarray | None = None
        self.reset_state()

    def configure(self, *, lr: float, momentum: float, weight_decay: float) -> None:
        """Set the step's hyper-parameters, checked as at construction."""
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if self.nesterov and momentum <= 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay

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
        rows = self.rows
        if (
            rows is not None
            and not self._per_param
            and all(p.grad is g for p, g in zip(self.params, rows.grads))
        ):
            self._step_rows(rows)
        else:
            self._step_params()

    def _update(self, data, grad, buf, scratch, start: bool = False):
        """The update body: step ``data`` by ``grad``; return ``(buf, scratch)``.

        ``buf`` is the momentum buffer: None before its first step (it
        starts as a copy of the gradient), or an array the gradient is
        copied into when ``start``.  A gradient wider than the buffer
        widens it; ``scratch`` (``lr * update``) follows the update's
        dtype.  ``data`` is computed in the wider of its dtype and the
        update's and rounded once.
        """
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        if self.momentum:
            if buf is None:
                # order="K": a gradient arriving transposed in memory keeps
                # its layout, and elementwise ops on matching layouts are
                # an order of magnitude faster.
                buf = grad.copy(order="K")
            elif start:
                np.copyto(buf, grad)
            elif buf.dtype == grad.dtype:
                buf *= self.momentum
                buf += grad
            else:
                # A hook started widening the gradient mid-run: follow it
                # rather than round into the old buffer.
                buf = self.momentum * buf + grad
            grad = grad + self.momentum * buf if self.nesterov else buf
        if scratch is None or scratch.dtype != grad.dtype:
            scratch = np.empty_like(grad)
        np.multiply(grad, self.lr, out=scratch)
        data -= scratch
        return buf, scratch

    def _step_rows(self, rows: ParamRows) -> None:
        """One update body per contiguous run of parameters in the rows."""
        if self._scratch_row is None:
            self._scratch_row = np.empty_like(rows.data)
        if self.momentum and self._buf_row is None:
            self._buf_row = np.empty_like(rows.data)
        buf = self._buf_row if self.momentum else None
        start = not self._rows_started
        for span in self._spans:
            self._update(
                rows.data[span],
                rows.grad[span],
                None if buf is None else buf[span],
                self._scratch_row[span],
                start,
            )
        self._rows_started = bool(self.momentum)

    def _step_params(self) -> None:
        rows = self.rows
        if rows is not None and not self._per_param:
            # The rest of the leg goes per parameter, from the momentum
            # the row steps so far have built.
            self._per_param = True
            if self._rows_started:
                self._buffers = [
                    self._buf_row[field].reshape(p.data.shape)
                    for p, field in zip(self.params, rows.fields)
                ]
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self._buffers[i], self._scratch[i] = self._update(
                p.data, p.grad, self._buffers[i], self._scratch[i]
            )

    def reset_state(self) -> None:
        """Drop momentum buffers and scratch (used when a client receives new weights).

        The row buffers are kept for the next leg: its first row step
        starts the momentum afresh.
        """
        self._buffers: list[np.ndarray | None] = [None] * len(self.params)
        self._scratch: list[np.ndarray | None] = [None] * len(self.params)
        self._rows_started = False
        self._per_param = False
