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
from repro.utils.registry import Registry
from repro.utils.rng import default_rng

__all__ = ["MODEL_BUILDERS", "register_model", "build_model", "available_models"]

MODEL_BUILDERS = Registry("model")


def register_model(name: str) -> Callable[[Callable[..., Module]], Callable[..., Module]]:
    """Class/function decorator adding a builder under ``name``."""
    return MODEL_BUILDERS.register(name)


def available_models() -> list[str]:
    """Sorted list of registered model names."""
    return MODEL_BUILDERS.available()


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
    builder = MODEL_BUILDERS.resolve(name)
    accepted = _constructor_keys(builder)
    if accepted is not None:
        refuse_unknown(kwargs, accepted, f"{name.lower()} model_params")
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
