"""Client-side local training.

``LocalTrainer`` owns a single reusable model instance, one float32
``row`` holding that model's parameters and buffers in
:class:`~repro.utils.layout.StateLayout` order, a ``grad_row`` of the
same layout beside it, and one :class:`~repro.optim.sgd.SGD` built over
both.  A training leg is row in, row out: :meth:`LocalTrainer.train`
copies the dispatched ``(P,)`` row into ``trainer.row``, binds every
parameter and buffer of the model as its view of that row, runs E
epochs of minibatch SGD in place, and leaves the trained model in
``trainer.row`` — the "local updating" step of the standard FL
iteration.  Method-specific behaviour (FedProx's proximal term,
SCAFFOLD's control-variate correction, FedGen's distillation term) is
injected through two hooks rather than subclassing, so every method
shares the exact same training loop.

During a leg without a ``grad_hook`` every parameter's gradient lands
in its view of ``grad_row`` (``Tensor._grad_sink``) and each step
updates the model with whole-row ufuncs over the rows.  A ``grad_hook``
reads and rebinds ``.grad`` arrays in whatever layout backward produced
them (the DP hook's norm sums one in memory order), so its legs keep
per-parameter gradients and update per parameter; the arithmetic, and
so every bit, is the same either way.  The gradient binding lasts for
the leg only: after it, evaluation, FedGen's teacher pass, a deep copy
or a pickle of the model never touch ``grad_row``.

The model binding (:meth:`LocalTrainer.bind`) is redone on every
``train`` call, and by the server's evaluation; FedGen's teacher pass
loads states with :meth:`~repro.nn.module.Module.load_state_dict`,
which rebinds the model to private copies between legs.

The serial execution backend drives one trainer per simulation; the
parallel backends (:mod:`repro.fl.execution`) build one private
trainer per worker from a picklable
:class:`~repro.fl.execution.TrainerSpec` and hand each ``train`` call
the client's own RNG stream, which is why a training leg must depend
only on its ``(flat, dataset, rng, hooks)`` arguments and the trainer's
settings — never on residue from a previous leg: the optimiser's state
is reset per leg, and ``lr`` / ``momentum`` / ``weight_decay`` are read
per leg (see ``SGD.step``'s dtype-stability note for the one case where
residue used to leak).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.nn.module import Module, Parameter
from repro.optim.sgd import SGD, ParamRows
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.utils.layout import StateLayout

__all__ = ["LocalTrainer", "LocalResult", "TrainStats"]

# loss_hook(model, logits, targets) -> extra loss Tensor or None
LossHook = Callable[[Module, Tensor, np.ndarray], "Tensor | None"]
# grad_hook(named_params) -> None, mutates .grad in place
GradHook = Callable[[dict], None]


class TrainStats(NamedTuple):
    """Scalars of one training leg; the trained model is ``trainer.row``."""

    num_samples: int
    num_steps: int
    mean_loss: float


@dataclass
class LocalResult:
    """Outcome of one landed leg.

    ``state`` is an :class:`~repro.fl.execution.UploadState`: a
    read-only mapping view of the upload-buffer row the leg landed in.
    """

    state: Mapping[str, np.ndarray]
    num_samples: int
    num_steps: int
    mean_loss: float


class LocalTrainer:
    """Runs the paper's local-update step on a reusable model template.

    Parameters
    ----------
    model:
        The shared model instance; it is rebound into ``trainer.row`` on
        every ``train`` call, so callers must treat it as scratch space.
        Every parameter and buffer must be float32 and registered under
        one name (no tied weights), or construction raises naming the
        field.
    local_epochs / batch_size / lr / momentum / weight_decay:
        SGD settings (paper defaults: 5 / 50 / 0.01 / 0.5 / 0), read on
        every ``train`` call, so they may change between legs.

    ``row`` holds the model, ``grad_row`` (same layout) its gradients
    during a leg without a grad hook, and ``optimizer`` is the one
    :class:`~repro.optim.sgd.SGD` over both.
    """

    def __init__(
        self,
        model: Module,
        local_epochs: int = 5,
        batch_size: int = 50,
        lr: float = 0.01,
        momentum: float = 0.5,
        weight_decay: float = 0.0,
    ) -> None:
        self.model = model
        self.local_epochs = local_epochs
        self.batch_size = batch_size
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        arrays: dict[str, np.ndarray] = {}
        owners: dict[str, tuple[Module, str, Parameter | np.ndarray]] = {}
        seen: dict[int, str] = {}
        for prefix, module in model.named_modules():
            for name, value in (*module._parameters.items(), *module._buffers.items()):
                key = f"{prefix}.{name}" if prefix else name
                array = value.data if isinstance(value, Parameter) else value
                if array.dtype != np.float32:
                    raise ValueError(
                        f"field {key!r} is {array.dtype}: a trainer trains its "
                        "model inside one float32 row"
                    )
                if id(value) in seen:
                    raise ValueError(
                        f"field {key!r} is also registered as {seen[id(value)]!r}: "
                        "only one of its two row slots would train"
                    )
                seen[id(value)] = key
                arrays[key] = array
                owners[key] = (module, name, value)
        self.layout = StateLayout.from_state(arrays)
        # Holds the model as built until the first leg binds it here.
        self.row = np.empty(self.layout.total_size, dtype=np.float32)
        # The gradients of a leg without a grad hook (buffer slots unused).
        self.grad_row = np.zeros_like(self.row)
        self._params: list[tuple[Parameter, np.ndarray, np.ndarray]] = []
        self._buffers: list[tuple[Module, str, np.ndarray]] = []
        fields: list[slice] = []
        for spec in self.layout.fields:
            field = slice(spec.offset, spec.stop)
            view = self.row[field].reshape(spec.shape)
            view[...] = arrays[spec.key]
            module, name, value = owners[spec.key]
            if isinstance(value, Parameter):
                self._params.append((value, view, self.grad_row[field].reshape(spec.shape)))
                fields.append(field)
            else:
                self._buffers.append((module, name, view))
        self._named = dict(model.named_parameters())
        self.optimizer = SGD(
            [param for param, _, _ in self._params],
            lr=lr,
            momentum=momentum,
            weight_decay=weight_decay,
            rows=ParamRows(
                self.row, self.grad_row, tuple(fields), tuple(g for _, _, g in self._params)
            ),
        )

    def bind(self, flat: np.ndarray) -> None:
        """Copy the ``(P,)`` row ``flat`` into ``self.row`` and bind every
        parameter and buffer of the model as its view of that row."""
        self.row[:] = flat
        for param, view, _ in self._params:
            param.data = view
        for module, name, view in self._buffers:
            module._set_buffer(name, view)

    def train(
        self,
        flat: np.ndarray,
        dataset: ArrayDataset,
        rng: np.random.Generator,
        *,
        loss_hook: LossHook | None = None,
        grad_hook: GradHook | None = None,
        lr_override: float | None = None,
    ) -> TrainStats:
        """Train from the ``(P,)`` row ``flat`` on ``dataset``, in ``self.row``.

        The optimiser is built once per trainer, but its state is reset
        and ``lr`` (or ``lr_override``), ``momentum`` and
        ``weight_decay`` are read afresh per call: clients are stateless
        between rounds, as in the paper's cross-device setting.
        """
        model = self.model
        self.bind(flat)
        model.train()
        optimizer = self.optimizer
        optimizer.configure(
            lr=lr_override if lr_override is not None else self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        optimizer.reset_state()
        loader = DataLoader(dataset, batch_size=self.batch_size, shuffle=True, rng=rng)
        named = self._named
        sinks = grad_hook is None

        total_loss = 0.0
        steps = 0
        if sinks:
            for param, _, grad in self._params:
                param._grad_sink = grad
        try:
            for _ in range(self.local_epochs):
                for x, y in loader:
                    optimizer.zero_grad()
                    inputs = x if x.dtype.kind in "iu" else Tensor(x)
                    logits = model(inputs)
                    loss = F.cross_entropy(logits, y)
                    if loss_hook is not None:
                        extra = loss_hook(model, logits, y)
                        if extra is not None:
                            loss = loss + extra
                    loss.backward()
                    if grad_hook is not None:
                        grad_hook(named)
                    optimizer.step()
                    total_loss += float(loss.item())
                    steps += 1
        finally:
            if sinks:
                for param, _, _ in self._params:
                    del param._grad_sink
                    param.grad = None

        return TrainStats(len(dataset), steps, total_loss / max(steps, 1))
