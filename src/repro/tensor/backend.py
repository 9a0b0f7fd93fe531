"""Pluggable array backends for the tensor/autograd substrate.

Every client forward/backward — the bulk of wall-clock in the paper's
Table-2 runs — used to be hard-coded ``numpy`` across
:mod:`repro.tensor`, :mod:`repro.nn` and :mod:`repro.optim`.  This
module makes *which array library executes that math* a pluggable
backend in the same registry style as :mod:`repro.core.storage`'s pool
backends and :mod:`repro.fl.execution`'s execution backends:

``numpy``
    :class:`NumpyBackend` — thin delegations to the exact same NumPy
    calls the pre-dispatch code made, so the dispatched path is
    **bit-identical** to the seed direct-numpy path (the cross-backend
    equivalence matrix enforces this end to end).  The default.
``cupy``
    :class:`CupyBackend` — the same op surface on CuPy device arrays.
    Registered only when ``cupy`` is importable, so CPU-only
    environments never pay an import error; host↔device transfer
    happens in ``asarray`` / :func:`to_host` at the state-dict and
    upload boundaries.
``instrumented``
    :class:`InstrumentedBackend` — wraps a base backend (numpy by
    default) and counts every dispatched op.  Exists for the coverage
    tests that prove the hot path routes *all* math through the
    dispatch layer rather than reaching for raw ``np.`` calls.

The op surface (:data:`OP_SURFACE`) is deliberately small: array
construction/conversion, the elementwise transcendentals the autograd
ops need, shape/indexing helpers, scatter-add, ``sliding_windows`` (the
strided window view ``conv2d`` and ``max_pool2d`` unroll; the GEMMs
themselves are ``@``), and a host-seeded uniform draw (dropout masks
stay bit-reproducible across backends because the *host* generator
always produces the bits).  Everything else the tensor code does uses
array **methods** (``.sum``, ``.reshape``, ``.astype``, ``@``…), which
NumPy and CuPy share, so it needs no dispatch.

Selection
---------
The active backend is process-global (workers of parallel execution
backends set it from :class:`~repro.fl.execution.TrainerSpec`):

* ``FLConfig.array_backend`` / ``--array-backend`` for simulations;
* ``REPRO_ARRAY_BACKEND`` as the environment default;
* :func:`set_array_backend` / :func:`use_array_backend` directly.

Adding a backend is three steps: subclass :class:`ArrayBackend`,
implement the :data:`OP_SURFACE` methods, and decorate with
``@register_array_backend("name")`` — it is then selectable through
every knob above.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import Counter

import numpy as np

from repro.utils.registry import Registry

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "InstrumentedBackend",
    "OP_SURFACE",
    "ARRAY_BACKENDS",
    "register_array_backend",
    "resolve_array_backend",
    "available_array_backends",
    "active_backend",
    "set_array_backend",
    "use_array_backend",
    "to_host",
]


#: Every op an :class:`ArrayBackend` must provide.  The instrumented
#: backend wraps exactly these; the registry test asserts the numpy
#: reference implements them all.
OP_SURFACE = (
    # construction / conversion
    "asarray",
    "to_numpy",
    "zeros",
    "ones",
    "zeros_like",
    "ones_like",
    "empty_like",
    "ascontiguousarray",
    "arange",
    # elementwise
    "exp",
    "log",
    "log1p",
    "sqrt",
    "abs",
    "sign",
    "tanh",
    "maximum",
    "fmax",
    "multiply",
    "where",
    "clip",
    # shape / broadcast
    "pad",
    "expand_dims",
    "swapaxes",
    "broadcast_to",
    "concatenate",
    "stack",
    # indexing / gather / scatter
    "take",
    "take_along_axis",
    "put_along_axis",
    "add_at",
    "sliding_windows",
    # random (host-seeded for cross-backend determinism)
    "random_uniform",
)


ARRAY_BACKENDS = Registry("array backend", error_type=ValueError)


@functools.lru_cache(maxsize=256, typed=True)
def window_plan(shape, strides, kh, kw, stride):
    """Shape and strides of the sliding-window view of an NCHW array.

    ``(shape, strides)`` describe the ``(N, out_h, out_w, C, kh, kw)``
    view of an array with the given ``shape`` / ``strides`` whose
    ``[n, y, x, c, i, j]`` element is ``array[n, c, y*stride + i,
    x*stride + j]``.  This is the memory-safety boundary of
    ``sliding_windows``: geometry that would index outside the array is
    rejected here, before any view exists.  The cache holds these
    integer tuples only — never an array — so plans are safe to share
    between calls and threads.
    """
    if len(shape) != 4:
        raise ValueError(f"sliding windows need a 4-D NCHW array, got shape {shape}")
    n, c, h, w = shape
    if stride < 1 or kh < 1 or kw < 1:
        raise ValueError(
            f"sliding windows need kernel and stride >= 1, got kernel ({kh}, {kw}), "
            f"stride {stride} (input shape {shape})"
        )
    if kh > h or kw > w:
        raise ValueError(
            f"kernel ({kh}, {kw}) is larger than the (padded) input: shape {shape}"
        )
    s_n, s_c, s_h, s_w = strides
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    return (n, out_h, out_w, c, kh, kw), (s_n, stride * s_h, stride * s_w, s_c, s_h, s_w)


def register_array_backend(name: str):
    """Class decorator registering an :class:`ArrayBackend`."""
    return ARRAY_BACKENDS.register(name)


def resolve_array_backend(name: str) -> type["ArrayBackend"]:
    """Backend class registered under ``name`` (case-insensitive).

    Unknown names raise :class:`ValueError` naming every registered
    backend, matching the pool-storage registry's contract so the
    ``--array-backend`` CLI validator reports typos the same way.
    """
    return ARRAY_BACKENDS.resolve(name)


def available_array_backends() -> list[str]:
    return ARRAY_BACKENDS.available()


class ArrayBackend:
    """One array library behind the tensor substrate.

    Subclasses set :attr:`array_type` (the native array class, used by
    ``Tensor`` coercion to recognise already-converted values) and
    :attr:`device`, and implement every :data:`OP_SURFACE` method.
    """

    name = "abstract"
    device = "abstract"
    array_type: type = object

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, device={self.device!r})"


@register_array_backend("numpy")
class NumpyBackend(ArrayBackend):
    """Reference implementation: thin delegations to NumPy.

    Each method makes *exactly* the call the pre-dispatch tensor code
    made, so routing through this backend is bit-identical to the seed
    direct-numpy path — the property the equivalence-matrix leg in
    ``tests/integration/test_backend_matrix.py`` pins down.
    """

    device = "cpu"
    array_type = np.ndarray

    # -- construction / conversion ----------------------------------------
    def asarray(self, value, dtype=None):
        return np.asarray(value, dtype=dtype)

    def to_numpy(self, array):
        return np.asarray(array)

    def zeros(self, shape, dtype=None):
        return np.zeros(shape, dtype=dtype)

    def ones(self, shape, dtype=None):
        return np.ones(shape, dtype=dtype)

    def zeros_like(self, array):
        return np.zeros_like(array)

    def ones_like(self, array):
        return np.ones_like(array)

    def empty_like(self, array):
        return np.empty_like(array)

    def ascontiguousarray(self, array):
        return np.ascontiguousarray(array)

    def arange(self, *args, **kwargs):
        return np.arange(*args, **kwargs)

    # -- elementwise -------------------------------------------------------
    def exp(self, array):
        return np.exp(array)

    def log(self, array):
        return np.log(array)

    def log1p(self, array):
        return np.log1p(array)

    def sqrt(self, array):
        return np.sqrt(array)

    def abs(self, array):
        return np.abs(array)

    def sign(self, array):
        return np.sign(array)

    def tanh(self, array):
        return np.tanh(array)

    def maximum(self, a, b):
        return np.maximum(a, b)

    def fmax(self, a, b):
        return np.fmax(a, b)

    def multiply(self, a, b, out=None):
        return np.multiply(a, b, out=out)

    def where(self, condition, a, b):
        return np.where(condition, a, b)

    def clip(self, array, low, high):
        return np.clip(array, low, high)

    # -- shape / broadcast -------------------------------------------------
    def pad(self, array, pad_width):
        return np.pad(array, pad_width)

    def expand_dims(self, array, axis):
        return np.expand_dims(array, axis)

    def swapaxes(self, array, axis1, axis2):
        return np.swapaxes(array, axis1, axis2)

    def broadcast_to(self, array, shape):
        return np.broadcast_to(array, shape)

    def concatenate(self, arrays, axis=0):
        return np.concatenate(arrays, axis=axis)

    def stack(self, arrays, axis=0):
        return np.stack(arrays, axis=axis)

    # -- indexing / gather / scatter ---------------------------------------
    def take(self, array, indices, axis=None):
        return np.take(array, indices, axis=axis)

    def take_along_axis(self, array, indices, axis):
        return np.take_along_axis(array, indices, axis)

    def put_along_axis(self, array, indices, values, axis):
        np.put_along_axis(array, indices, values, axis)

    def add_at(self, array, indices, values):
        np.add.at(array, indices, values)

    def sliding_windows(self, array, kh, kw, stride):
        """Read-only ``(N, out_h, out_w, C, kh, kw)`` view of NCHW ``array``.

        No data moves: every ``kh x kw`` window at ``stride`` is a
        stride pattern over ``array``'s own memory (:func:`window_plan`
        checks it stays inside it).  The im2col lowering of ``conv2d``
        and the general ``max_pool2d`` path copy out of this view once.
        """
        shape, strides = window_plan(array.shape, array.strides, kh, kw, stride)
        return np.lib.stride_tricks.as_strided(
            array, shape=shape, strides=strides, writeable=False
        )

    # -- random ------------------------------------------------------------
    def random_uniform(self, rng, shape):
        """Uniform [0, 1) draw of ``shape`` from the **host** generator.

        Drawing on the host keeps mask bits identical across backends
        (device RNGs have different streams); non-host backends
        transfer the result.
        """
        return rng.random(shape)


def _counting_op(op: str):
    def method(self, *args, **kwargs):
        self.counts[op] += 1
        return getattr(self.base, op)(*args, **kwargs)

    method.__name__ = op
    method.__qualname__ = f"InstrumentedBackend.{op}"
    method.__doc__ = f"Counted dispatch of ``{op}`` to the base backend."
    return method


@register_array_backend("instrumented")
class InstrumentedBackend(ArrayBackend):
    """Counting wrapper around a base backend (numpy by default).

    ``counts`` maps op name → number of dispatched calls.  The
    dispatch-coverage test trains a hot-path step under this backend
    and asserts the expected ops were actually routed through the
    dispatch layer — i.e. that no refactor quietly reintroduced raw
    ``np.`` math in :mod:`repro.tensor` / :mod:`repro.nn` /
    :mod:`repro.optim`.
    """

    device = "cpu"

    def __init__(self, base: ArrayBackend | None = None) -> None:
        self.base = base if base is not None else NumpyBackend()
        self.counts: Counter[str] = Counter()

    @property
    def array_type(self) -> type:
        return self.base.array_type

    @property
    def base_device(self) -> str:
        return self.base.device

    def reset(self) -> None:
        self.counts.clear()


for _op in OP_SURFACE:
    setattr(InstrumentedBackend, _op, _counting_op(_op))
del _op


try:  # pragma: no cover - exercised only where cupy is installed
    import cupy as _cupy
    import cupyx as _cupyx
except ImportError:  # pragma: no cover - the usual CPU-only path
    _cupy = None
    _cupyx = None

if _cupy is not None:  # pragma: no cover - exercised only with a GPU

    @register_array_backend("cupy")
    class CupyBackend(ArrayBackend):
        """CuPy device-array backend (registered only when importable).

        The op surface mirrors :class:`NumpyBackend` one-for-one; the
        two deliberate differences are ``add_at`` (CuPy spells
        unbuffered scatter-add ``cupyx.scatter_add``) and
        ``random_uniform`` (draws on the host generator, then
        transfers, preserving mask bit-streams).
        """

        device = "cuda"
        array_type = _cupy.ndarray

        def asarray(self, value, dtype=None):
            return _cupy.asarray(value, dtype=dtype)

        def to_numpy(self, array):
            return _cupy.asnumpy(array)

        def zeros(self, shape, dtype=None):
            return _cupy.zeros(shape, dtype=dtype)

        def ones(self, shape, dtype=None):
            return _cupy.ones(shape, dtype=dtype)

        def zeros_like(self, array):
            return _cupy.zeros_like(array)

        def ones_like(self, array):
            return _cupy.ones_like(array)

        def empty_like(self, array):
            return _cupy.empty_like(array)

        def ascontiguousarray(self, array):
            return _cupy.ascontiguousarray(array)

        def arange(self, *args, **kwargs):
            return _cupy.arange(*args, **kwargs)

        def exp(self, array):
            return _cupy.exp(array)

        def log(self, array):
            return _cupy.log(array)

        def log1p(self, array):
            return _cupy.log1p(array)

        def sqrt(self, array):
            return _cupy.sqrt(array)

        def abs(self, array):
            return _cupy.abs(array)

        def sign(self, array):
            return _cupy.sign(array)

        def tanh(self, array):
            return _cupy.tanh(array)

        def maximum(self, a, b):
            return _cupy.maximum(a, b)

        def fmax(self, a, b):
            return _cupy.fmax(a, b)

        def multiply(self, a, b, out=None):
            return _cupy.multiply(a, b, out=out)

        def where(self, condition, a, b):
            return _cupy.where(condition, a, b)

        def clip(self, array, low, high):
            return _cupy.clip(array, low, high)

        def pad(self, array, pad_width):
            return _cupy.pad(array, pad_width)

        def expand_dims(self, array, axis):
            return _cupy.expand_dims(array, axis)

        def swapaxes(self, array, axis1, axis2):
            return _cupy.swapaxes(array, axis1, axis2)

        def broadcast_to(self, array, shape):
            return _cupy.broadcast_to(array, shape)

        def concatenate(self, arrays, axis=0):
            return _cupy.concatenate(arrays, axis=axis)

        def stack(self, arrays, axis=0):
            return _cupy.stack(arrays, axis=axis)

        def take(self, array, indices, axis=None):
            return _cupy.take(array, self.asarray(indices), axis=axis)

        def take_along_axis(self, array, indices, axis):
            return _cupy.take_along_axis(array, self.asarray(indices), axis)

        def put_along_axis(self, array, indices, values, axis):
            _cupy.put_along_axis(array, self.asarray(indices), values, axis)

        def add_at(self, array, indices, values):
            if isinstance(indices, tuple):
                indices = tuple(
                    self.asarray(i) if isinstance(i, np.ndarray) else i
                    for i in indices
                )
            else:
                indices = self.asarray(indices)
            _cupyx.scatter_add(array, indices, values)

        def sliding_windows(self, array, kh, kw, stride):
            shape, strides = window_plan(array.shape, array.strides, kh, kw, stride)
            # CuPy views carry no read-only flag; callers only read.
            return _cupy.lib.stride_tricks.as_strided(array, shape=shape, strides=strides)

        def random_uniform(self, rng, shape):
            return _cupy.asarray(rng.random(shape))


# ----------------------------------------------------------------------
# Active-backend selection
# ----------------------------------------------------------------------
_ENV_VAR = "REPRO_ARRAY_BACKEND"
_ACTIVE: ArrayBackend | None = None
_INSTANCES: dict[str, ArrayBackend] = {}


def _instance(name: str) -> ArrayBackend:
    """One shared instance per registered name (counts survive lookups)."""
    key = str(name).lower()
    backend = _INSTANCES.get(key)
    if backend is None:
        backend = resolve_array_backend(key)()
        _INSTANCES[key] = backend
    return backend


def active_backend() -> ArrayBackend:
    """The process-global backend all tensor math dispatches through.

    Resolved lazily from ``REPRO_ARRAY_BACKEND`` (default ``numpy``) on
    first use; changed with :func:`set_array_backend` /
    :func:`use_array_backend`.
    """
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _instance(os.environ.get(_ENV_VAR, "numpy"))
    return _ACTIVE


def set_array_backend(backend: "str | ArrayBackend | None") -> ArrayBackend:
    """Select the active backend by name or instance; returns it.

    ``None`` resets to the environment default (lazy re-resolution).
    Tensors created under the previous backend keep their arrays;
    selection only affects subsequently constructed tensors, so switch
    between training runs, not mid-graph.
    """
    global _ACTIVE
    if backend is None:
        _ACTIVE = None
        return active_backend()
    _ACTIVE = backend if isinstance(backend, ArrayBackend) else _instance(backend)
    return _ACTIVE


@contextlib.contextmanager
def use_array_backend(backend: "str | ArrayBackend"):
    """Context manager scoping :func:`set_array_backend` (tests)."""
    global _ACTIVE
    previous = _ACTIVE
    selected = set_array_backend(backend)
    try:
        yield selected
    finally:
        _ACTIVE = previous


def to_host(array) -> np.ndarray:
    """Bring a backend array to host memory as an ``np.ndarray``.

    Identity (no copy) for arrays already on the host — the numpy
    backend pays nothing — so the upload boundary
    (:meth:`repro.utils.layout.StateLayout.flatten_into`, module
    state dicts) lands bit-identical float32 rows regardless of where
    the math ran.
    """
    if isinstance(array, np.ndarray):
        return array
    get = getattr(array, "get", None)
    if get is not None:
        return get()
    return np.asarray(array)
