"""Adam optimiser (used by the FedGen server-side generator)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Adam"]


class Adam:
    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: list[np.ndarray | None] = [None] * len(self.params)
        self._v: list[np.ndarray | None] = [None] * len(self.params)
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m = self._m[i]
            v = self._v[i]
            m = (1 - b1) * grad if m is None else b1 * m + (1 - b1) * grad
            v = (1 - b2) * grad * grad if v is None else b2 * v + (1 - b2) * grad * grad
            self._m[i], self._v[i] = m, v
            m_hat = m / bias1
            v_hat = v / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def reset_state(self) -> None:
        self._m = [None] * len(self.params)
        self._v = [None] * len(self.params)
        self._t = 0
