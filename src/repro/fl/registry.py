"""Method registry: names → server classes.

Baseline servers register themselves on import of
:mod:`repro.baselines`; FedCross registers on import of
:mod:`repro.core`. :func:`build_server` triggers both imports lazily so
the registry is always populated without import cycles.
"""

from __future__ import annotations

import importlib
from typing import Type

from repro.fl.server import FederatedServer

__all__ = ["register_method", "build_server", "available_methods", "resolve_method"]

_REGISTRY: dict[str, Type[FederatedServer]] = {}
_PROVIDER_MODULES = ("repro.baselines", "repro.core")


def register_method(name: str):
    """Class decorator registering a :class:`FederatedServer` subclass."""

    def decorator(cls: Type[FederatedServer]) -> Type[FederatedServer]:
        key = name.lower()
        if key in _REGISTRY:
            raise KeyError(f"method {name!r} is already registered")
        _REGISTRY[key] = cls
        cls.method_name = key
        return cls

    return decorator


def _ensure_providers_loaded() -> None:
    for module in _PROVIDER_MODULES:
        importlib.import_module(module)


def available_methods() -> list[str]:
    _ensure_providers_loaded()
    return sorted(_REGISTRY)


def resolve_method(name: str) -> Type[FederatedServer]:
    """The server class registered under ``name``."""
    _ensure_providers_loaded()
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown method {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[key]


def build_server(name: str, *args, **kwargs) -> FederatedServer:
    """Instantiate the server class registered under ``name``."""
    return resolve_method(name)(*args, **kwargs)
