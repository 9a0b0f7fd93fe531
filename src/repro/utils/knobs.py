"""Option tables: frozen dataclasses whose fields are *knobs*.

A knob is a field declared by :func:`knob` with its flag, parse type,
choices or check, help and group in ``metadata``.  ``FLConfig``, each
method's ``Options``, each aggregation operator and ``FaultScenario``
are such tables; :func:`parse_knobs` builds one from a mapping.  This
module imports nothing from ``repro`` at import time: the fault and
operator tables are built while :mod:`repro.fl` is still mid-import.
A named knob's :class:`~repro.utils.registry.Registry` is imported by
:func:`load` when a value is first checked.
"""

from __future__ import annotations

import importlib
from dataclasses import field, fields
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "NON_NEGATIVE", "POSITIVE", "check_knobs", "knob", "knob_error", "load", "parse_knobs",
    "refuse_unknown",
]

POSITIVE = (lambda v: v > 0, "positive")
NON_NEGATIVE = (lambda v: v >= 0, ">= 0")


def knob(
    flag: str | None,
    default: Any,
    group: str,
    help: str,
    *,
    type: Callable | None = None,
    choices: tuple | None = None,
    registry: str | None = None,
    check: tuple | None = None,
    factory: Callable | None = None,
):
    """A dataclass field with its knob metadata.

    ``flag`` is the command-line spelling (``None``: no flag);
    ``type`` parses the flag's string (default: the default's type, else
    ``str``); ``registry`` names the ``module:OBJECT``
    :class:`~repro.utils.registry.Registry` a value must be a name in;
    ``check`` is a ``(predicate, requirement)`` pair; ``factory``
    replaces ``default`` for mutable defaults.
    """
    if type is None:
        type = str if default is None else default.__class__
    metadata = dict(
        flag=flag, type=type, choices=choices, registry=registry,
        check=check, help=help, group=group,
    )
    if factory is not None:
        return field(default_factory=factory, metadata=metadata)
    return field(default=default, metadata=metadata)


def _one_of(options) -> str:
    names = [repr(o) for o in options]
    return ", ".join(names[:-1]) + " or " + names[-1]


def load(path: str):
    """The object ``module:name`` names, importing its module on first use."""
    module, name = path.split(":")
    return getattr(importlib.import_module(module), name)


def knob_error(f, value) -> ValueError | None:
    """The error ``value`` earns as knob field ``f``, or ``None``: for a
    named knob, its registry's :class:`~repro.utils.registry.UnknownName`.
    A knob whose default is ``None`` also accepts ``None``."""
    optional = f.default is None
    if optional and value is None:
        return None
    meta = f.metadata
    if meta["registry"] is not None:
        registry = load(meta["registry"])
        return None if value in registry else registry.unknown(value, f.name)
    if meta["choices"] is not None:
        ok = value in meta["choices"]
        need = _one_of((None, *meta["choices"]) if optional else meta["choices"])
    elif meta["check"] is not None:
        test, need = meta["check"]
        ok = test(value)
        need = "None or " + need if optional else need
    else:
        return None
    return None if ok else ValueError(f"{f.name} must be {need}, got {value!r}")


def check_knobs(table, owner: str | None = None) -> None:
    """Run every field's knob check on the dataclass instance ``table``;
    the error names the field (after ``owner``, when given).  A named
    knob's value is stored lowercased, as its registry keys it, so code
    that reads it compares one spelling."""
    for f in fields(table):
        value = getattr(table, f.name)
        error = knob_error(f, value)
        if error is not None:
            raise error if owner is None else type(error)(f"{owner}: {error}")
        if f.metadata["registry"] is not None and isinstance(value, str):
            object.__setattr__(table, f.name, value.lower())


def parse_knobs(cls, options: Mapping, owner: str):
    """The table ``cls`` built from ``options``: a key it does not declare
    is refused, naming ``owner`` and the accepted keys; then every check runs."""
    refuse_unknown(options, [f.name for f in fields(cls)], owner)
    table = cls(**options)
    check_knobs(table, owner)
    return table


def refuse_unknown(options: Iterable[str], accepted: list[str], owner: str) -> None:
    """A ``ValueError`` for the first key of ``options`` not in
    ``accepted``, naming ``owner``, the key and the accepted keys."""
    for key in options:
        if key not in accepted:
            raise ValueError(f"unknown {owner} key {key!r}; accepted keys: {accepted}")
