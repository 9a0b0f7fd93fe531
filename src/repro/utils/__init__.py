"""Shared utilities: deterministic RNG streams, cached flat-vector
state layouts, and the generic plugin registry.

Exports resolve lazily (PEP 562), so importing one utility module loads
only that one; eager package-level imports here would add every utility
to the set-up every run pays.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "default_rng": "repro.utils.rng",
    "spawn_rng": "repro.utils.rng",
    "FieldSpec": "repro.utils.layout",
    "StateLayout": "repro.utils.layout",
    "Registry": "repro.utils.registry",
}

__all__ = list(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static-analysis view of the API
    from repro.utils.layout import FieldSpec, StateLayout
    from repro.utils.registry import Registry
    from repro.utils.rng import default_rng, spawn_rng


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.utils' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
