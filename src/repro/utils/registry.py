"""Generic name → class registry.

Every named knob of a run resolves through one :class:`Registry`:
methods (:mod:`repro.fl.registry`), models (:mod:`repro.models.registry`),
datasets (:mod:`repro.data.federated`), pool storage
(:mod:`repro.core.storage`), client execution (:mod:`repro.fl.execution`),
round schedulers (:mod:`repro.fl.scheduler`) and aggregation operators
(:mod:`repro.robust.operators`).  Each maps lowercase names to classes
(or builder functions); a ``register_*`` decorator rejects duplicates
and stamps ``name`` on what it registers, a ``resolve_*`` lookup raises
:class:`UnknownName` naming every registered option, and an
``available_*`` listing forwards to :meth:`Registry.available`.

``FLConfig`` checks each named knob's value with ``in`` — the same
case-insensitive membership :meth:`Registry.resolve` uses — so an
unknown name fails at construction, before anything is built.

Lazy entries (:meth:`Registry.lazy`) map a name to a module path
instead of a class: the module is imported on first :meth:`resolve`
of that name and is expected to perform the real registration as an
import side effect.  Membership and :meth:`Registry.available` count
lazy names without importing them, so heavyweight optional subsystems
(the socket-RPC ``distributed`` backends) stay unimported until
actually selected, and a method's module is imported only when a run
builds that method.
"""

from __future__ import annotations

import importlib

__all__ = ["Registry", "UnknownName"]


class UnknownName(ValueError):
    """A name no registry entry answers to; the message names the kind,
    the name and every registered name."""


class Registry:
    """Mapping of lowercase names to registered classes.

    Parameters
    ----------
    kind:
        Human-readable noun used in error messages, e.g.
        ``"pool backend"`` or ``"execution backend"``.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, type] = {}
        self._lazy: dict[str, str] = {}

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

    def resolve(self, name: str) -> type:
        """Class registered under ``name`` (case-insensitive); an unknown
        name raises :class:`UnknownName`, so a typo fails with the fix in
        the message."""
        key = str(name).lower()
        if key not in self._entries and key in self._lazy:
            importlib.import_module(self._lazy[key])
        if key not in self._entries:
            raise self.unknown(name)
        return self._entries[key]

    def unknown(self, name, knob: str | None = None) -> UnknownName:
        """The error for ``name``, prefixed by the ``knob`` it was given to."""
        where = "" if knob is None else f"{knob}: "
        return UnknownName(f"{where}unknown {self.kind} {name!r}; available: {self.available()}")

    def available(self) -> list[str]:
        """Sorted registered names (lazy entries included)."""
        return sorted(set(self._entries) | set(self._lazy))

    def __contains__(self, name: object) -> bool:
        """Case-insensitive, and a lazy name counts without its import."""
        key = str(name).lower()
        return key in self._entries or key in self._lazy

    def __delitem__(self, name: str) -> None:
        del self._entries[name.lower()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {self.available()})"
