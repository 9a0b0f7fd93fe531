"""Model registry: names → constructors.

Keeps experiment configs declarative (``model="resnet8"``) and gives a
single seam where determinism is enforced: every builder receives a
fresh generator derived from the caller's seed.
"""

from __future__ import annotations

import inspect
from typing import Callable

from repro.nn.module import Module
from repro.utils.knobs import refuse_unknown
from repro.utils.rng import default_rng

__all__ = ["register_model", "build_model", "available_models"]

_REGISTRY: dict[str, Callable[..., Module]] = {}


def register_model(name: str) -> Callable[[Callable[..., Module]], Callable[..., Module]]:
    """Class/function decorator adding a builder under ``name``."""

    def decorator(builder: Callable[..., Module]) -> Callable[..., Module]:
        key = name.lower()
        if key in _REGISTRY:
            raise KeyError(f"model {name!r} is already registered")
        _REGISTRY[key] = builder
        return builder

    return decorator


def available_models() -> list[str]:
    """Sorted list of registered model names."""
    return sorted(_REGISTRY)


def build_model(name: str, seed: int = 0, **kwargs) -> Module:
    """Instantiate a registered model deterministically.

    Parameters
    ----------
    name:
        Registered model name (case-insensitive), e.g. ``"cnn"``,
        ``"resnet20"``, ``"vgg_mini"``, ``"charlstm"``.
    seed:
        Root seed for weight initialisation.
    kwargs:
        Forwarded to the model constructor (``num_classes``,
        ``input_shape``, ...); a key the constructor does not take is a
        ``ValueError`` naming the model, the key and the accepted keys.
    """
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {available_models()}")
    builder = _REGISTRY[key]
    accepted = _constructor_keys(builder)
    if accepted is not None:
        refuse_unknown(kwargs, accepted, f"{key} model_params")
    return builder(rng=default_rng(seed), **kwargs)


def _constructor_keys(builder: Callable[..., Module]) -> list[str] | None:
    """Keyword arguments of the model class ``builder``'s return
    annotation names, less ``rng``; ``None`` when no fixed set can be
    read."""
    cls = inspect.signature(builder, eval_str=True).return_annotation
    if not isinstance(cls, type):
        return None
    params = inspect.signature(cls).parameters
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return None
    return sorted(set(params) - {"rng"})
