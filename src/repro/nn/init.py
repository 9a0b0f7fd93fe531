"""Weight initialisation schemes (Kaiming / Xavier families).

All initialisers are pure functions from an explicit RNG to an ndarray,
so model construction is fully deterministic given a seed — a property
the FL experiments rely on: every method under comparison starts from
identical weights.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "kaiming_uniform",
    "kaiming_normal",
    "xavier_uniform",
    "xavier_normal",
    "uniform",
    "normal",
    "zeros",
    "ones",
]


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and convolutional weights."""
    if len(shape) < 2:
        raise ValueError(f"fan computation requires >= 2 dims, got {shape}")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], a: float = math.sqrt(5)) -> np.ndarray:
    """He-uniform init (PyTorch's default for Linear/Conv weights)."""
    fan_in, _ = _fan_in_out(shape)
    gain = math.sqrt(2.0 / (1 + a * a))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def kaiming_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """He-normal init for ReLU networks (used by the ResNet family)."""
    fan_in, _ = _fan_in_out(shape)
    std = math.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(np.float32)


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot-uniform init (used by the LSTM input projections)."""
    fan_in, fan_out = _fan_in_out(shape)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def xavier_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot-normal init."""
    fan_in, fan_out = _fan_in_out(shape)
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return (rng.standard_normal(shape) * std).astype(np.float32)


def uniform(rng: np.random.Generator, shape: tuple[int, ...], bound: float) -> np.ndarray:
    """Uniform init in ``[-bound, bound]`` (bias vectors)."""
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 1.0) -> np.ndarray:
    """Zero-mean normal init with standard deviation ``std`` (embeddings)."""
    return (rng.standard_normal(shape) * std).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
