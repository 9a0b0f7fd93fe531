"""Reverse-mode autograd engine on NumPy.

This package is the compute substrate for the FedCross reproduction: a
minimal but complete tensor library with automatic differentiation,
sufficient to train the CNN / ResNet / VGG / LSTM model families used in
the paper's evaluation.

Public API
----------
``Tensor``
    The autograd tensor type. Wraps a ``numpy.ndarray`` and records the
    operations applied to it so that :meth:`Tensor.backward` can compute
    gradients for every tensor with ``requires_grad=True``.
``no_grad`` / ``is_grad_enabled``
    Context manager disabling graph construction (used for evaluation).
``functional``
    Higher-level differentiable functions (softmax, losses, conv2d, ...).
``gradcheck``
    Numerical gradient verification used heavily by the test-suite.
"""

from repro.tensor.autograd import is_grad_enabled, no_grad
from repro.tensor.tensor import Tensor, as_tensor
from repro.tensor import functional
from repro.tensor.gradcheck import gradcheck

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "gradcheck",
]
