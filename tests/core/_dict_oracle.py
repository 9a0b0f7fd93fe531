"""The state-dict aggregation paths, kept as the test oracle.

The server used to aggregate on *state dicts* — flat ``{name: ndarray}``
mappings, key by key, as the paper's server-side pseudo-code
manipulates model parameter lists.  It now holds models as rows
(:class:`~repro.core.pool.PoolBuffer` rows and the global row), and
these dict helpers — flatten/unflatten, ``tree_map``,
``weighted_average``, ``cross_aggregate`` and
``global_model_generation`` — are what the row engine is held to, bit
for bit.  Not used by ``src/``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.fedcross import validate_alpha


def flatten_state_dict(state: Mapping[str, np.ndarray]) -> np.ndarray:
    """Concatenate all arrays of a state dict into one float64 vector.

    Keys are traversed in sorted order so that two state dicts of the
    same model always flatten consistently — required for the cosine
    similarity the paper's ``CoModelSel`` strategies compute.
    """
    if not state:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(
        [np.asarray(state[k], dtype=np.float64).reshape(-1) for k in sorted(state)]
    )


def unflatten_state_dict(
    vector: np.ndarray, reference: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Inverse of :func:`flatten_state_dict` using ``reference`` shapes."""
    vector = np.asarray(vector)
    out: dict[str, np.ndarray] = {}
    offset = 0
    for key in sorted(reference):
        ref = np.asarray(reference[key])
        size = ref.size
        out[key] = vector[offset : offset + size].reshape(ref.shape).astype(ref.dtype)
        offset += size
    if offset != vector.size:
        raise ValueError(
            f"vector of size {vector.size} does not match reference with {offset} elements"
        )
    return out


def state_dict_like(
    reference: Mapping[str, np.ndarray], fill: Callable[[np.ndarray], np.ndarray]
) -> dict[str, np.ndarray]:
    """Build a new state dict by applying ``fill`` to each reference array."""
    return {k: fill(np.asarray(v)) for k, v in reference.items()}


def zeros_like_state(reference: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """State dict of zeros with the same shapes/dtypes as ``reference``."""
    return state_dict_like(reference, np.zeros_like)


def tree_map(
    fn: Callable[..., np.ndarray], *states: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Apply ``fn`` key-wise across one or more aligned state dicts.

    Examples
    --------
    >>> delta = tree_map(lambda a, b: a - b, new_state, old_state)
    """
    if not states:
        raise ValueError("tree_map requires at least one state dict")
    keys = set(states[0])
    for s in states[1:]:
        if set(s) != keys:
            raise KeyError("state dicts have mismatched keys")
    return {k: fn(*(np.asarray(s[k]) for s in states)) for k in states[0]}


def weighted_average(
    states: Iterable[Mapping[str, np.ndarray]], weights: Iterable[float] | None = None
) -> dict[str, np.ndarray]:
    """Weighted element-wise average of state dicts (FedAvg's core op).

    Weights are normalised to sum to 1; ``None`` means uniform.
    Integer entries (e.g. step counters) are carried from the first
    state instead of averaged — float-averaging then truncating back to
    the integer dtype silently corrupts them.
    """
    states = list(states)
    if not states:
        raise ValueError("cannot average an empty list of state dicts")
    if weights is None:
        w = np.full(len(states), 1.0 / len(states))
    else:
        w = np.asarray(list(weights), dtype=np.float64)
        if len(w) != len(states):
            raise ValueError("weights and states length mismatch")
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        w = w / total
    out: dict[str, np.ndarray] = {}
    for key in states[0]:
        first = np.asarray(states[0][key])
        if first.dtype.kind in "iub":
            out[key] = first.copy()
            continue
        acc = np.zeros_like(first, dtype=np.float64)
        for wi, state in zip(w, states):
            acc += wi * np.asarray(state[key], dtype=np.float64)
        out[key] = acc.astype(first.dtype)
    return out


def cross_aggregate(
    model: Mapping[str, np.ndarray],
    collaborator: Mapping[str, np.ndarray],
    alpha: float,
) -> dict[str, np.ndarray]:
    """CrossAggr key-wise: ``alpha * model + (1 - alpha) * collaborator``.

    Integer entries (step counters and other non-float buffers) are
    carried from ``model`` unchanged — blending them in floating point
    and truncating back silently corrupts them.
    """
    alpha = validate_alpha(alpha)
    if set(model) != set(collaborator):
        raise KeyError("model and collaborator state dicts have mismatched keys")
    out: dict[str, np.ndarray] = {}
    for key, value in model.items():
        value = np.asarray(value)
        if value.dtype.kind in "iub":
            out[key] = value.copy()
            continue
        a = np.asarray(value, dtype=np.float64)
        b = np.asarray(collaborator[key], dtype=np.float64)
        out[key] = (alpha * a + (1.0 - alpha) * b).astype(value.dtype)
    return out


def global_model_generation(
    middleware: Sequence[Mapping[str, np.ndarray]],
) -> dict[str, np.ndarray]:
    """GlobalModelGen key-wise: the uniform average of the middleware pool."""
    if not middleware:
        raise ValueError("middleware pool is empty")
    return weighted_average(middleware)
