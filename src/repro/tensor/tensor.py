"""The autograd ``Tensor`` type.

A ``Tensor`` wraps a ``numpy.ndarray`` and, while gradient mode is
enabled (see :mod:`repro.tensor.autograd`), records enough information
to run reverse-mode automatic differentiation: the parent tensors and a
closure that maps the output gradient onto each parent's gradient.

Design notes
------------
* Gradients accumulate into ``tensor.grad`` (a raw ndarray), mirroring
  the PyTorch convention the paper's implementation relies on
  (``zero_grad`` between steps, ``+=`` accumulation inside a step).
* Broadcasting is fully supported: ``_unbroadcast`` reduces an upstream
  gradient back onto a parent's shape by summing over broadcast axes.
* The graph is a DAG of ``Tensor`` nodes; ``backward`` runs a
  depth-first topological sort and applies each node's backward closure
  exactly once.  A fused node may hand one parent's gradient to a
  *late* closure, which runs where the graph it replaces ran that
  parent's own node (see ``Tensor.backward``).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.tensor.autograd import is_grad_enabled

__all__ = ["Tensor", "as_tensor"]

_DEFAULT_DTYPE = np.float32

ArrayLike = "Tensor | np.ndarray | float | int | list | tuple"


def _unbroadcast(grad, shape: tuple[int, ...]):
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``.

    Broadcasting aligns shapes from the right and virtually repeats
    size-1 (or missing) axes; the adjoint of a repeat is a sum, so the
    gradient of a broadcast operand is the upstream gradient summed back
    to the operand's original shape.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _compact(array) -> bool:
    """Whether ``array`` spans its elements with no gaps or padding.

    That is, its strides are the ones ``empty_like`` gives it, so
    adopting it pins no larger buffer and keeps the layout a copy
    would have.
    """
    flags = array.flags
    if flags.c_contiguous or flags.f_contiguous:
        return True
    return array.strides == np.empty_like(array).strides


#: A transposed (F-ordered) 2-D gradient this large lands in a C-ordered
#: sink in blocks of this many columns, so the strided side of the copy
#: stays in cache (a 512x1024 float32 weight: 1.6 -> 0.7 ms; a 64x768
#: one: 0.07 -> 0.04 ms, one thread of a 2-core x86 host).  Elementwise,
#: so the bits are the same.
_BLOCK_COLS = 64
_BLOCK_MIN_BYTES = 64 << 10


def _land(sink, grad, add: bool) -> None:
    """Copy ``grad`` into ``sink`` (``add=False``) or add it in place.

    An add casts ``grad`` to the sink's dtype first, as
    ``Tensor._accumulate`` does; a copy casts on the way in.
    """
    if add:
        grad = grad.astype(sink.dtype, copy=False)
    if grad.ndim == 2 and grad.nbytes >= _BLOCK_MIN_BYTES and not grad.flags.c_contiguous:
        for j in range(0, grad.shape[1], _BLOCK_COLS):
            _land_block(sink[:, j : j + _BLOCK_COLS], grad[:, j : j + _BLOCK_COLS], add)
    else:
        _land_block(sink, grad, add)


def _land_block(dst, src, add: bool) -> None:
    if add:
        np.add(dst, src, out=dst)
    else:
        np.copyto(dst, src)


def _coerce(value):
    """Convert ``value`` to an ndarray without copying when possible.

    Float/complex/integer arrays keep their dtype (integer tensors feed
    index ops such as :func:`repro.tensor.functional.embedding`); bool
    and everything else coerces to the default float dtype.  An
    already-suitable ndarray passes through untouched.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "fcui":
        return np.asarray(value, dtype=value.dtype)
    return np.asarray(value, dtype=_DEFAULT_DTYPE)


class Tensor:
    """An ndarray tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a float ndarray.
    requires_grad:
        When True (and grad mode is on), operations involving this
        tensor extend the autograd graph and ``backward`` will populate
        ``self.grad``.

    Examples
    --------
    >>> x = Tensor([[1.0, 2.0]], requires_grad=True)
    >>> y = (x * x).sum()
    >>> y.backward()
    >>> x.grad
    array([[2., 4.]], dtype=float32)
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_late", "_parents", "_op")
    __array_priority__ = 100.0  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = _coerce(data)
        self.grad = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Callable | None = None
        self._late: Callable | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._op: str = ""

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data,
        parents: Sequence["Tensor"],
        backward: Callable,
        op: str,
        late: Callable | None = None,
    ) -> "Tensor":
        """Create an op output, wiring the graph if grad mode requires it.

        ``late``, if given, is a second backward closure taking the same
        gradient; ``backward`` orders it (see ``Tensor.backward``).
        """
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
            out._late = late
            out._op = op
        return out

    # ------------------------------------------------------------------
    # ndarray-ish properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying data as an ndarray (no copy)."""
        return np.asarray(self.data)

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_err()

    def _item_err(self):
        raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a graph-detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:
        grad_part = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_part})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad=None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to ones (only valid for scalar
            outputs, matching the usual loss.backward() idiom).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient is only supported for "
                    f"scalar outputs; this tensor has shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            # A copy: view ops hand this array on to be adopted, and the
            # caller's array must never become some parameter's ``.grad``.
            grad = np.asarray(grad, dtype=self.data.dtype).astype(self.data.dtype, copy=True)

        # Depth-first, post-order: each entry is a closure and the node
        # whose gradient it takes, pushed before the node's parents so it
        # runs after every node downstream of it.
        topo: list[tuple[Callable, Tensor]] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, Callable | None]] = [(self, None)]
        while stack:
            node, run = stack.pop()
            if run is not None:
                topo.append((run, node))
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node._backward is not None:
                stack.append((node, node._backward))
            parents = node._parents
            if node._late is not None:
                # The late closure is sorted as a node of its own between
                # the first parent and the rest: it runs after everything
                # upstream of the first parent.  That is where the unfused
                # graph ran the node it stands for (``linear``'s weight
                # transpose), so a parameter several fused nodes share —
                # an LSTM's, once per time step — sums its gradients in
                # the unfused graph's order.
                first, parents = parents[0], parents[1:]
                if first.requires_grad and first._parents and id(first) not in visited:
                    stack.append((first, None))
                stack.append((node, node._late))
            for parent in parents:
                # Leaves (parameters, inputs) are left out: they have no
                # closure to run, so the order of the rest is unchanged.
                if parent.requires_grad and parent._parents and id(parent) not in visited:
                    stack.append((parent, None))

        self.grad = grad if self.grad is None else self.grad + grad
        for run, node in reversed(topo):
            if node.grad is not None:
                run(node.grad)

    #: Where this tensor's gradient lands, if anywhere: an array of its
    #: shape that ``_accumulate`` writes instead of allocating.  Only a
    #: ``Parameter`` (which has an instance ``__dict__``) sets one, for
    #: one training leg (``LocalTrainer.train``).
    _grad_sink = None

    def _accumulate(self, grad, fresh: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` (lazily allocated).

        ``fresh=True`` hands ``grad`` over: the caller computed it for
        this parent alone, or it is a view of the calling node's own
        gradient (reshape, transpose), which the engine reads no more.
        A first gradient handed over in this tensor's dtype and compact
        in memory is adopted as ``self.grad`` rather than copied, in the
        layout the copy would have had (``astype`` copies in
        ``order="K"``).  Anything else — an upstream gradient passed to
        several parents, a broadcast or strided view — is copied.  So a
        ``.grad`` shares memory at most with the gradient of a view of
        its own tensor, never with another leaf's, and in-place edits of
        a parameter's gradient (SCAFFOLD's ``grad_hook``) stay local.

        With a ``_grad_sink`` bound, the gradient lands there instead:
        the first write copies into it, later writes add in place — the
        values of the copy and of ``self.grad + grad`` above — and
        ``self.grad`` is the sink.  Its layout is the sink's, whatever
        the gradient's.
        """
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad), self.data.shape)
        sink = self._grad_sink
        if sink is not None and (self.grad is None or self.grad is sink):
            _land(sink, grad, add=self.grad is sink)
            self.grad = sink
        elif self.grad is not None:
            self.grad = self.grad + grad.astype(self.data.dtype, copy=False)
        elif fresh and grad.dtype == self.data.dtype and _compact(grad):
            self.grad = grad
        else:
            self.grad = grad.astype(self.data.dtype, copy=True)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(g) -> None:
            self._accumulate(g)
            other._accumulate(g)

        return Tensor._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(g) -> None:
            self._accumulate(g * other.data, fresh=True)
            other._accumulate(g * self.data, fresh=True)

        return Tensor._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward(g) -> None:
            self._accumulate(g)
            other._accumulate(-g, fresh=True)

        return Tensor._make(out_data, (self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(g) -> None:
            self._accumulate(g / other.data, fresh=True)
            other._accumulate(-g * self.data / (other.data * other.data), fresh=True)

        return Tensor._make(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(g) -> None:
            self._accumulate(-g, fresh=True)

        return Tensor._make(out_data, (self,), backward, "neg")

    def __pow__(self, exponent) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports Python scalar exponents")
        out_data = self.data**exponent

        def backward(g) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1), fresh=True)

        return Tensor._make(out_data, (self,), backward, f"pow{exponent}")

    # ------------------------------------------------------------------
    # Comparisons (graph-free, return plain Tensors of 0/1)
    # ------------------------------------------------------------------
    def __gt__(self, other) -> "Tensor":
        other = as_tensor(other)
        return Tensor((self.data > other.data).astype(self.data.dtype))

    def __lt__(self, other) -> "Tensor":
        other = as_tensor(other)
        return Tensor((self.data < other.data).astype(self.data.dtype))

    def __ge__(self, other) -> "Tensor":
        other = as_tensor(other)
        return Tensor((self.data >= other.data).astype(self.data.dtype))

    def __le__(self, other) -> "Tensor":
        other = as_tensor(other)
        return Tensor((self.data <= other.data).astype(self.data.dtype))

    # ------------------------------------------------------------------
    # Transcendental / unary ops
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g) -> None:
            self._accumulate(g * out_data, fresh=True)

        return Tensor._make(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g) -> None:
            self._accumulate(g / self.data, fresh=True)

        return Tensor._make(out_data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g) -> None:
            self._accumulate(g * 0.5 / out_data, fresh=True)

        return Tensor._make(out_data, (self,), backward, "sqrt")

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(g) -> None:
            self._accumulate(g * np.sign(self.data), fresh=True)

        return Tensor._make(out_data, (self,), backward, "abs")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g) -> None:
            self._accumulate(g * (1.0 - out_data * out_data), fresh=True)

        return Tensor._make(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic: exp only ever sees non-positive values.
        out_data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, 0, None))),
            np.exp(np.clip(self.data, None, 0))
            / (1.0 + np.exp(np.clip(self.data, None, 0))),
        ).astype(self.data.dtype, copy=False)

        def backward(g) -> None:
            self._accumulate(g * out_data * (1.0 - out_data), fresh=True)

        return Tensor._make(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        # Branch-free, and bitwise ``where(x > 0, x, 0)`` on every input:
        # fmax drops NaN for the 0, and ``+= 0`` turns the -0.0 that some
        # of NumPy's fmax loops return for a -0.0 input into +0.0.
        out_data = np.fmax(self.data, 0)
        out_data += 0
        # The mask is graph work: built only when backward can run.
        mask = self.data > 0 if is_grad_enabled() and self.requires_grad else None

        def backward(g) -> None:
            self._accumulate(g * mask, fresh=True)

        return Tensor._make(out_data, (self,), backward, "relu")

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, negative_slope * self.data).astype(
            self.data.dtype, copy=False
        )

        def backward(g) -> None:
            self._accumulate(g * np.where(mask, 1.0, negative_slope), fresh=True)

        return Tensor._make(out_data, (self,), backward, "leaky_relu")

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(g) -> None:
            self._accumulate(g * mask, fresh=True)

        return Tensor._make(out_data, (self,), backward, "clip")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g) -> None:
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    grad = np.expand_dims(grad, ax)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return Tensor._make(out_data, (self,), backward, "sum")

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = math.prod(self.data.shape[a] for a in axes)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g) -> None:
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
                maxes = self.data.max(axis=axis, keepdims=True)
            else:
                maxes = out_data if keepdims or axis is None else None
                if maxes is None or getattr(maxes, "ndim", 0) != self.data.ndim:
                    maxes = self.data.max(axis=axis, keepdims=True)
            mask = self.data == maxes
            # Split the gradient evenly across ties (subgradient choice).
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(grad * mask / counts, fresh=True)

        return Tensor._make(out_data, (self,), backward, "max")

    def min(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return -(-self).max(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(g) -> None:
            # ``g`` is this node's own gradient: hand a view of it over.
            self._accumulate(np.asarray(g).reshape(original), fresh=True)

        return Tensor._make(out_data, (self,), backward, "reshape")

    def flatten(self, start_dim: int = 0) -> "Tensor":
        """Flatten dimensions from ``start_dim`` onwards into one axis."""
        lead = self.data.shape[:start_dim]
        return self.reshape(*lead, -1)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        perm = axes if axes else tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(perm)
        inverse = tuple(sorted(range(len(perm)), key=perm.__getitem__))

        def backward(g) -> None:
            self._accumulate(np.asarray(g).transpose(inverse), fresh=True)

        return Tensor._make(out_data, (self,), backward, "transpose")

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(g) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, g)
            self._accumulate(grad, fresh=True)

        return Tensor._make(out_data, (self,), backward, "getitem")

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) axes of an NCHW tensor."""
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.data.ndim - 2) + [(padding, padding), (padding, padding)]
        out_data = np.pad(self.data, pad_width)
        sl = (Ellipsis, slice(padding, -padding), slice(padding, -padding))

        def backward(g) -> None:
            self._accumulate(np.asarray(g)[sl])

        return Tensor._make(out_data, (self,), backward, "pad2d")

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(g) -> None:
            g = np.asarray(g)
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # dot product -> scalar
                self._accumulate(g * b, fresh=True)
                other._accumulate(g * a, fresh=True)
                return
            if a.ndim == 1:  # (k,) @ (..., k, n)
                self._accumulate(
                    (np.expand_dims(g, -2) @ np.swapaxes(b, -1, -2)).reshape(a.shape), fresh=True
                )
                other._accumulate(np.expand_dims(a, -1) @ np.expand_dims(g, -2), fresh=True)
                return
            if b.ndim == 1:  # (..., m, k) @ (k,)
                self._accumulate(np.expand_dims(g, -1) @ np.expand_dims(b, -2), fresh=True)
                other._accumulate(_unbroadcast(np.swapaxes(a, -1, -2) @ np.expand_dims(g, -1), b.shape + (1,)).reshape(b.shape), fresh=True)
                return
            grad_a = g @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ g
            self._accumulate(_unbroadcast(grad_a, a.shape), fresh=True)
            other._accumulate(_unbroadcast(grad_b, b.shape), fresh=True)

        return Tensor._make(out_data, (self, other), backward, "matmul")

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def dot(self, other) -> "Tensor":
        return self.matmul(other)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


# ----------------------------------------------------------------------
# Free functions building on the Tensor graph
# ----------------------------------------------------------------------
def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = list(itertools.accumulate(sizes, initial=0))

    def backward(g) -> None:
        g = np.asarray(g)
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            t._accumulate(g[tuple(sl)])

    return Tensor._make(out_data, tuple(tensors), backward, "concat")


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g) -> None:
        g = np.asarray(g)
        for i, t in enumerate(tensors):
            t._accumulate(np.take(g, i, axis=axis), fresh=True)

    return Tensor._make(out_data, tuple(tensors), backward, "stack")


def where(condition, a, b) -> Tensor:
    """Differentiable selection: ``condition`` is a plain boolean array."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(g) -> None:
        g = np.asarray(g)
        a._accumulate(np.where(cond, g, 0.0), fresh=True)
        b._accumulate(np.where(cond, 0.0, g), fresh=True)

    return Tensor._make(out_data, (a, b), backward, "where")
