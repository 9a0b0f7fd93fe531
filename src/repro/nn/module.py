"""Module / Parameter containers.

``Module`` provides the PyTorch-style contract the FL layer depends on:

* recursive parameter discovery (``parameters`` / ``named_parameters``),
* state-dict export/import (the unit of communication in every FL
  method reproduced here),
* train/eval mode switching (batch-norm, dropout),
* ``zero_grad`` between optimiser steps.

State dicts are ``{name: np.ndarray}`` copies — the currency of
aggregation, the pool matrix and shared-memory upload rows.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A trainable tensor — always created with ``requires_grad=True``."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape}, dtype={self.dtype})"


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`, buffer arrays (via
    :meth:`register_buffer`) and child ``Module`` instances as ordinary
    attributes; registration happens automatically in ``__setattr__``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- attribute registration ---------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._buffers.pop(name, None)
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        else:
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array carried in the state dict
        (e.g. batch-norm running statistics)."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a registered buffer in place of reference."""
        if name not in self._buffers:
            raise KeyError(f"buffer {name!r} is not registered")
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # -- forward -------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- traversal -----------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> Iterator[Parameter]:
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}.{name}" if prefix else name), buf
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_buffers(child_prefix)

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- training mode ---------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- state dicts -----------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Ndarray copy of all parameters and buffers, keyed by dotted path."""
        out: dict[str, np.ndarray] = {}
        for name, p in self.named_parameters():
            out[name] = np.asarray(p.data).copy()
        for name, b in self.named_buffers():
            out[name] = np.asarray(b).copy()
        return out

    def load_state_dict(self, state: Mapping[str, np.ndarray], strict: bool = True) -> None:
        """Load parameters/buffers from ``state`` (copies, never aliases)."""
        own_params = dict(self.named_parameters())
        own_buffer_owners: dict[str, tuple[Module, str]] = {}
        for mod_name, module in self.named_modules():
            for buf_name in module._buffers:
                full = f"{mod_name}.{buf_name}" if mod_name else buf_name
                own_buffer_owners[full] = (module, buf_name)

        missing = (set(own_params) | set(own_buffer_owners)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffer_owners))
        if strict and (missing or unexpected):
            raise KeyError(
                f"load_state_dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            if name in own_params:
                param = own_params[name]
                value = np.asarray(value, dtype=param.data.dtype)
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"shape mismatch for {name!r}: "
                        f"model {param.data.shape} vs state {value.shape}"
                    )
                param.data = value.copy()  # never aliases ``state``
            elif name in own_buffer_owners:
                module, buf_name = own_buffer_owners[name]
                module._set_buffer(buf_name, np.asarray(value).copy())

    def __repr__(self) -> str:
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for i, module in enumerate(modules):
            setattr(self, str(i), module)
        self._order = [str(i) for i in range(len(modules))]

    def forward(self, x):
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]


class ModuleList(Module):
    """List-like container that registers its items as submodules."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._order: list[str] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = str(len(self._order))
        setattr(self, name, module)
        self._order.append(name)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]
