"""Method registry: names → server classes.

Each method is a lazy entry naming the module that registers it
(baselines in :mod:`repro.baselines`, FedCross in :mod:`repro.core`),
so a name is valid without an import and :func:`build_server` imports
only the method a run builds.
"""

from __future__ import annotations

from typing import Type

from repro.fl.server import FederatedServer
from repro.utils.registry import Registry

__all__ = ["METHODS", "register_method", "build_server", "available_methods", "resolve_method"]

METHODS = Registry("method")
for _name in ("fedavg", "fedprox", "scaffold", "fedgen", "clusamp", "fedcluster"):
    METHODS.lazy(_name, f"repro.baselines.{_name}")
METHODS.lazy("fedcross", "repro.core.fedcross")


def register_method(name: str):
    """Class decorator registering a :class:`FederatedServer` subclass."""
    return METHODS.register(name)


def available_methods() -> list[str]:
    return METHODS.available()


def resolve_method(name: str) -> Type[FederatedServer]:
    """The server class registered under ``name``."""
    return METHODS.resolve(name)


def build_server(name: str, *args, **kwargs) -> FederatedServer:
    """Instantiate the server class registered under ``name``."""
    return resolve_method(name)(*args, **kwargs)
