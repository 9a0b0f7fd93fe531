"""Core trainable layers: Linear, Conv2d, Embedding, Dropout, Flatten.

Weight initialisation goes through :mod:`repro.nn.init` and all math
through :class:`~repro.tensor.Tensor` ops.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, as_tensor
from repro.utils.rng import default_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["Linear", "Conv2d", "Embedding", "Dropout", "Flatten", "Identity"]


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with PyTorch weight layout."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform(rng, (out_features, in_features)))
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias = Parameter(init.uniform(rng, (out_features,), bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Conv2d(Module):
    """2-D convolution over NCHW input."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform(rng, (out_channels, in_channels, kernel_size, kernel_size))
        )
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            bound = 1.0 / math.sqrt(fan_in)
            self.bias = Parameter(init.uniform(rng, (out_channels,), bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class Embedding(Module):
    """Token-index to dense-vector lookup table."""

    def __init__(
        self, num_embeddings: int, embedding_dim: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            init.normal(rng, (num_embeddings, embedding_dim), std=0.1)
        )

    def forward(self, indices) -> Tensor:
        # Normalise like every other layer: indices become an integer
        # Tensor instead of special-casing raw ndarrays.
        return F.embedding(as_tensor(indices), self.weight)

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class Dropout(Module):
    """Inverted dropout; active only in training mode.

    The mask RNG is owned by the layer and reseeded via ``reseed`` so
    local training on a client is reproducible but not identical across
    rounds.
    """

    def __init__(self, p: float = 0.5, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = default_rng(seed)

    def reseed(self, seed: int) -> None:
        self._rng = default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Flatten(Module):
    """Flatten all axes after the batch axis."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=1)


class Identity(Module):
    """Pass-through module (used for absent residual projections)."""

    def forward(self, x: Tensor) -> Tensor:
        return x
