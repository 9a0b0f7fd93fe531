"""Numerical gradient verification.

``gradcheck`` compares analytic gradients produced by the autograd
engine against central finite differences. The test-suite runs it over
every op and layer, which is what gives us confidence that the NumPy
substrate faithfully replaces PyTorch for the paper's experiments.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["gradcheck"]


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-4,
    atol: float = 1e-3,
    rtol: float = 1e-2,
) -> bool:
    """Verify analytic gradients of ``fn`` against finite differences.

    Parameters
    ----------
    fn:
        Function mapping the given tensors to a (not necessarily scalar)
        ``Tensor``; non-scalar outputs are reduced with ``sum`` so a
        single backward pass covers every output element.
    inputs:
        Tensors to differentiate with respect to. They should be float64
        for meaningful tolerances (float32 finite differences are noisy).
    eps, atol, rtol:
        Finite-difference step and comparison tolerances.

    Returns
    -------
    bool
        True when all analytic gradients match; raises ``AssertionError``
        with a diagnostic message otherwise.
    """
    inputs = list(inputs)
    for t in inputs:
        if not isinstance(t, Tensor):
            raise TypeError("gradcheck inputs must be Tensors")
        t.requires_grad = True
        t.zero_grad()

    out = fn(*inputs)
    loss = out.sum() if out.size != 1 else out
    loss.backward()
    analytic = [None if t.grad is None else np.asarray(t.grad).copy() for t in inputs]

    for idx, t in enumerate(inputs):
        numeric = np.zeros(t.data.shape, dtype=np.float64)
        flat = t.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = float(_eval_sum(fn, inputs))
            flat[i] = original - eps
            minus = float(_eval_sum(fn, inputs))
            flat[i] = original
            num_flat[i] = (plus - minus) / (2.0 * eps)
        got = analytic[idx]
        if got is None:
            got = np.zeros_like(numeric)
        if not np.allclose(got, numeric, atol=atol, rtol=rtol):
            worst = np.abs(np.asarray(got, dtype=np.float64) - numeric).max()
            raise AssertionError(
                f"gradcheck failed for input {idx} with shape {t.shape}: "
                f"max abs diff {worst:.3e} (atol={atol}, rtol={rtol})\n"
                f"analytic:\n{got}\nnumeric:\n{numeric}"
            )
    return True


def _eval_sum(fn: Callable[..., Tensor], inputs: Sequence[Tensor]) -> float:
    """Evaluate ``sum(fn(*inputs))`` without touching existing gradients."""
    out = fn(*inputs)
    return float(np.asarray(out.data, dtype=np.float64).sum())
