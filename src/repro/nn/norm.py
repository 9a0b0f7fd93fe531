"""Normalisation layers.

``BatchNorm2d`` keeps running statistics as buffers, so FL aggregation
of state dicts averages them across clients exactly as FedAvg-style
systems do in practice. ``GroupNorm`` is provided as the batch-size
independent alternative commonly substituted in FL work; the ResNet/VGG
builders accept either.
"""

from __future__ import annotations

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor

__all__ = ["BatchNorm2d", "GroupNorm", "LayerNorm"]


class BatchNorm2d(Module):
    """Batch normalisation over the channel axis of NCHW input."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones(num_features))
        self.bias = Parameter(init.zeros(num_features))
        self.register_buffer("running_mean", init.zeros(num_features))
        self.register_buffer("running_var", init.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            # Track running statistics with detached batch moments.
            m = self.momentum
            batch_mean = mean.data.reshape(-1)
            batch_var = var.data.reshape(-1)
            # In place: a trainer's buffers are views of its row.
            self.running_mean[...] = (1 - m) * self.running_mean + m * batch_mean
            self.running_var[...] = (1 - m) * self.running_var + m * batch_var
        else:
            mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
        x_hat = (x - mean) / (var + self.eps).sqrt()
        w = self.weight.reshape(1, self.num_features, 1, 1)
        b = self.bias.reshape(1, self.num_features, 1, 1)
        return x_hat * w + b

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class GroupNorm(Module):
    """Group normalisation (Wu & He 2018) over NCHW input."""

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5) -> None:
        super().__init__()
        if num_channels % num_groups != 0:
            raise ValueError(
                f"num_channels={num_channels} must be divisible by num_groups={num_groups}"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.weight = Parameter(init.ones(num_channels))
        self.bias = Parameter(init.zeros(num_channels))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"GroupNorm expects NCHW input, got shape {x.shape}")
        n, c, h, w = x.shape
        g = self.num_groups
        grouped = x.reshape(n, g, c // g, h, w)
        mean = grouped.mean(axis=(2, 3, 4), keepdims=True)
        var = grouped.var(axis=(2, 3, 4), keepdims=True)
        x_hat = ((grouped - mean) / (var + self.eps).sqrt()).reshape(n, c, h, w)
        weight = self.weight.reshape(1, c, 1, 1)
        bias = self.bias.reshape(1, c, 1, 1)
        return x_hat * weight + bias

    def __repr__(self) -> str:
        return f"GroupNorm(groups={self.num_groups}, channels={self.num_channels})"


class LayerNorm(Module):
    """Layer normalisation over the last axis (used by the LSTM heads)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(init.ones(normalized_shape))
        self.bias = Parameter(init.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        x_hat = (x - mean) / (var + self.eps).sqrt()
        return x_hat * self.weight + self.bias

    def __repr__(self) -> str:
        return f"LayerNorm({self.normalized_shape})"
