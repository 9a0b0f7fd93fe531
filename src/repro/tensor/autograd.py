"""Autograd mode switches.

The engine records the computation graph only while gradient mode is
enabled. Evaluation code (test-accuracy passes, loss-landscape scans)
wraps itself in :func:`no_grad` to avoid the memory and time overhead of
graph construction — exactly mirroring the idiom the paper's PyTorch
implementation would use.
"""

from __future__ import annotations

import contextlib
import threading

__all__ = ["no_grad", "is_grad_enabled", "set_grad_enabled"]


class _GradMode(threading.local):
    """Thread-local gradient-mode flag (default: enabled)."""

    def __init__(self) -> None:
        super().__init__()
        self.enabled = True


_MODE = _GradMode()


def is_grad_enabled() -> bool:
    """Return True when operations record the autograd graph."""
    return _MODE.enabled


def set_grad_enabled(enabled: bool) -> None:
    """Enable or disable autograd graph recording in the calling thread.

    The mode is thread-local, as :func:`no_grad` is: a thread that turns
    recording off leaves it on in every other thread (a ``thread``
    backend's legs record their graphs while another thread evaluates).
    """
    _MODE.enabled = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables autograd graph recording in this thread.

    Examples
    --------
    >>> from repro.tensor import Tensor, no_grad
    >>> x = Tensor([1.0, 2.0], requires_grad=True)
    >>> with no_grad():
    ...     y = x * 3.0
    >>> y.requires_grad
    False
    """
    previous = _MODE.enabled
    _MODE.enabled = False
    try:
        yield
    finally:
        _MODE.enabled = previous
