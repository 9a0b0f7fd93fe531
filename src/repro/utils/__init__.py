"""Shared utilities: deterministic RNG streams, parameter flattening,
cached flat-vector state layouts, and the generic plugin registry.

Exports resolve lazily (PEP 562), so importing one utility module loads
only that one: ``import repro.cli`` needs :mod:`repro.utils.layout` but
not :mod:`repro.utils.params`, and eager package-level imports here
would add the latter to the set-up every run pays.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "default_rng": "repro.utils.rng",
    "spawn_rng": "repro.utils.rng",
    "seed_sequence": "repro.utils.rng",
    "FieldSpec": "repro.utils.layout",
    "StateLayout": "repro.utils.layout",
    "flatten_state_dict": "repro.utils.params",
    "unflatten_state_dict": "repro.utils.params",
    "state_dict_like": "repro.utils.params",
    "zeros_like_state": "repro.utils.params",
    "tree_map": "repro.utils.params",
    "Registry": "repro.utils.registry",
}

__all__ = list(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static-analysis view of the API
    from repro.utils.layout import FieldSpec, StateLayout
    from repro.utils.params import (
        flatten_state_dict,
        state_dict_like,
        tree_map,
        unflatten_state_dict,
        zeros_like_state,
    )
    from repro.utils.registry import Registry
    from repro.utils.rng import default_rng, seed_sequence, spawn_rng


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.utils' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
