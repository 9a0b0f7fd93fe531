"""Cached flat-vector layouts for model state dicts.

Re-deriving key order, shapes and offsets and concatenating a fresh
vector on every flatten is fine for one-off diagnostics but ruinous on
the FedCross server hot path, which compares and fuses all K middleware
models every round.  A :class:`StateLayout` computes the sorted-key
``offset/shape/dtype`` spec *once* per model architecture and then
provides O(1)-metadata packing/unpacking between state dicts and flat
rows — the backbone of :class:`repro.core.pool.PoolBuffer`.

Layouts are immutable and cached by structural signature
(``(key, shape, dtype)`` triples), so repeated construction from
identically-shaped states is a dict lookup.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["FieldSpec", "StateLayout"]


class FieldSpec:
    """Placement of one state-dict entry inside the flat vector."""

    __slots__ = ("key", "offset", "size", "shape", "dtype")

    def __init__(self, key: str, offset: int, shape: tuple[int, ...], dtype: np.dtype) -> None:
        self.key = key
        self.offset = offset
        self.shape = shape
        self.dtype = np.dtype(dtype)
        self.size = int(np.prod(shape)) if shape else 1

    @property
    def stop(self) -> int:
        return self.offset + self.size

    @property
    def is_integer(self) -> bool:
        """True for integer/bool fields (e.g. step counters), which must
        never be averaged in floating point."""
        return self.dtype.kind in "iub"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FieldSpec({self.key!r}, offset={self.offset}, "
            f"shape={self.shape}, dtype={self.dtype})"
        )


_LAYOUT_CACHE: dict[tuple, "StateLayout"] = {}


class StateLayout:
    """Sorted-key ``{name: ndarray}`` ⇄ flat-vector layout of one model.

    Keys are laid out in sorted order, so the flat rows of two states
    of the same model always line up column for column.
    """

    def __init__(self, fields: Sequence[FieldSpec]) -> None:
        self.fields: tuple[FieldSpec, ...] = tuple(fields)
        self.by_key: dict[str, FieldSpec] = {f.key: f for f in self.fields}
        self.keys: tuple[str, ...] = tuple(f.key for f in self.fields)
        self.total_size: int = self.fields[-1].stop if self.fields else 0
        self._mask_cache: dict[frozenset[str] | None, np.ndarray] = {}
        self._integer_mask: np.ndarray | None = None

    # -- construction -----------------------------------------------------
    @staticmethod
    def _signature(state: Mapping[str, np.ndarray]) -> tuple:
        # Reads only shape/dtype metadata, so device-backend arrays
        # never transfer just to derive a layout.
        sig = []
        for k in sorted(state):
            arr = state[k]
            if not hasattr(arr, "shape"):
                arr = np.asarray(arr)
            sig.append((k, tuple(arr.shape), np.dtype(arr.dtype).str))
        return tuple(sig)

    @classmethod
    def from_state(cls, state: Mapping[str, np.ndarray]) -> "StateLayout":
        """Layout for ``state``, cached by structural signature."""
        sig = cls._signature(state)
        layout = _LAYOUT_CACHE.get(sig)
        if layout is None:
            fields = []
            offset = 0
            for key, shape, dtype_str in sig:
                spec = FieldSpec(key, offset, shape, np.dtype(dtype_str))
                fields.append(spec)
                offset = spec.stop
            layout = cls(fields)
            _LAYOUT_CACHE[sig] = layout
        return layout

    # -- flat <-> dict -----------------------------------------------------
    def flatten_into(self, state: Mapping[str, np.ndarray], out: np.ndarray) -> np.ndarray:
        """Pack ``state`` into the preallocated flat row ``out`` (a
        shared-memory, shard or upload row)."""
        if out.shape != (self.total_size,):
            raise ValueError(f"row of shape {out.shape} != ({self.total_size},)")
        for f in self.fields:
            out[f.offset : f.stop] = np.asarray(state[f.key]).reshape(-1)
        return out

    def flatten(self, state: Mapping[str, np.ndarray], dtype=np.float64) -> np.ndarray:
        """Flat vector of ``state`` (fresh allocation)."""
        if set(state) != set(self.keys):
            raise KeyError("state keys do not match layout")
        return self.flatten_into(state, np.empty(self.total_size, dtype=dtype))

    def unflatten(self, row: np.ndarray, copy: bool = False) -> dict[str, np.ndarray]:
        """State dict over ``row``.

        When ``copy`` is False, entries whose dtype matches the row's are
        zero-copy *views* into ``row`` (mutating them mutates the row);
        mismatched dtypes (e.g. integer counters in a float row) are
        always cast copies.
        """
        out: dict[str, np.ndarray] = {}
        for f in self.fields:
            chunk = row[f.offset : f.stop].reshape(f.shape)
            out[f.key] = chunk.astype(f.dtype, copy=copy)
        return out

    # -- masks -------------------------------------------------------------
    def mask(self, keys: Iterable[str] | None = None) -> np.ndarray:
        """Boolean column mask selecting ``keys`` (``None`` = all).

        Used to restrict similarity to trainable parameters, mirroring
        the ``param_keys`` filtering of the dict-based selection path.
        Cached per key set.
        """
        cache_key = None if keys is None else frozenset(keys)
        cached = self._mask_cache.get(cache_key)
        if cached is not None:
            return cached
        mask = np.zeros(self.total_size, dtype=bool)
        if cache_key is None:
            mask[:] = True
        else:
            for f in self.fields:
                if f.key in cache_key:
                    mask[f.offset : f.stop] = True
        self._mask_cache[cache_key] = mask
        return mask

    def integer_mask(self) -> np.ndarray:
        """Boolean column mask of integer/bool fields (never averaged)."""
        if self._integer_mask is None:
            mask = np.zeros(self.total_size, dtype=bool)
            for f in self.fields:
                if f.is_integer:
                    mask[f.offset : f.stop] = True
            self._integer_mask = mask
        return self._integer_mask

    @property
    def integer_keys(self) -> tuple[str, ...]:
        return tuple(f.key for f in self.fields if f.is_integer)

    def __len__(self) -> int:
        return len(self.fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateLayout({len(self.fields)} fields, {self.total_size} scalars)"
