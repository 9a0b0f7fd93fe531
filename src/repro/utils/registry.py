"""Generic name → class registry.

Four subsystems follow the same plugin pattern — pool storage
(:mod:`repro.core.storage`), client execution (:mod:`repro.fl.execution`),
round schedulers (:mod:`repro.fl.scheduler`) and aggregation operators
(:mod:`repro.robust.operators`): a module-level mapping
of lowercase names to classes, a ``register_*`` class decorator that
rejects duplicates and stamps ``cls.name``, a ``resolve_*`` lookup whose
error names every registered option, and an ``available_*`` listing.
:class:`Registry` is that pattern extracted once.

The class speaks the mapping protocol (``in``, ``[]``, ``del``, ``len``,
iteration over names), so existing call sites — including tests that
clean up temporary registrations with ``del REGISTRY["name"]`` — keep
working against a ``Registry`` exactly as they did against the plain
dicts it replaces.

``error_type`` parameterises the unknown-name exception because the
pre-existing registries disagree (storage raises :class:`ValueError`,
execution raises :class:`KeyError`) and CLI validators catch the
specific type; unifying them would be an API break for no gain.

Lazy entries (:meth:`Registry.lazy`) map a name to a module path
instead of a class: the module is imported on first :meth:`resolve`
of that name and is expected to perform the real registration as an
import side effect.  This lets heavyweight optional subsystems (the
socket-RPC ``distributed`` backends) stay unimported until actually
selected, while still appearing in :meth:`available` listings and
being resolvable from CLI validators without import cycles.
"""

from __future__ import annotations

import importlib
from typing import Iterator

__all__ = ["Registry"]


class Registry:
    """Mapping of lowercase names to registered classes.

    Parameters
    ----------
    kind:
        Human-readable noun used in error messages, e.g.
        ``"pool backend"`` or ``"execution backend"``.
    error_type:
        Exception class raised by :meth:`resolve` for unknown names.
    """

    def __init__(self, kind: str, error_type: type[Exception] = ValueError) -> None:
        self.kind = kind
        self.error_type = error_type
        self._entries: dict[str, type] = {}
        self._lazy: dict[str, str] = {}

    # -- registration ------------------------------------------------------
    def register(self, name: str):
        """Class decorator registering ``cls`` under ``name``.

        Duplicate names raise :class:`KeyError`; the class gains a
        ``name`` attribute holding its (lowercased) registered key.
        """

        def decorator(cls: type) -> type:
            key = name.lower()
            if key in self._entries:
                raise KeyError(f"{self.kind} {name!r} is already registered")
            self._entries[key] = cls
            self._lazy.pop(key, None)
            cls.name = key
            return cls

        return decorator

    def lazy(self, name: str, module: str) -> None:
        """Register ``name`` as provided by ``module`` on first resolve.

        The module is imported when ``name`` is first resolved and must
        register the real class (via :meth:`register`) at import time.
        A name that is already concretely registered is left alone.
        """
        key = name.lower()
        if key not in self._entries:
            self._lazy[key] = module

    def _load_lazy(self, key: str) -> None:
        module = self._lazy.get(key)
        if module is None:
            return
        importlib.import_module(module)
        if key not in self._entries:  # pragma: no cover - misconfigured lazy
            raise self.error_type(
                f"module {module!r} did not register {self.kind} {key!r}"
            )

    # -- lookup ------------------------------------------------------------
    def resolve(self, name: str) -> type:
        """Class registered under ``name`` (case-insensitive).

        Unknown names raise ``error_type`` naming every registered
        entry, so CLI typos fail with the fix in the message.
        """
        key = str(name).lower()
        if key not in self._entries:
            self._load_lazy(key)
        if key not in self._entries:
            names = sorted(set(self._entries) | set(self._lazy))
            raise self.error_type(
                f"unknown {self.kind} {name!r}; available: {names}"
            )
        return self._entries[key]

    def available(self) -> list[str]:
        """Sorted registered names (lazy entries included)."""
        return sorted(set(self._entries) | set(self._lazy))

    # -- mapping protocol --------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._entries or name in self._lazy

    def __getitem__(self, name: str) -> type:
        return self._entries[name]

    def __setitem__(self, name: str, cls: type) -> None:
        self._entries[name] = cls

    def __delitem__(self, name: str) -> None:
        del self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        return self._entries.keys()

    def items(self):
        return self._entries.items()

    def values(self):
        return self._entries.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {sorted(self._entries)})"
