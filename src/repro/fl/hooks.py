"""Picklable hook specifications for local-training customisation.

Method-specific local-training behaviour (FedProx's proximal term,
SCAFFOLD's control-variate correction, FedGen's distillation term) used
to be injected as *closures* built in each server's ``dispatch``.
Closures capture the live server (``self.mu``, ``self._c_global``, the
generator...) and therefore cannot cross a process boundary — the one
thing the ``process`` execution backend needs them to do.

A :class:`HookSpec` is the closure's picklable twin: a small value
object carrying exactly the data the hook needs, resolved into a plain
callable *where the training runs* via :meth:`HookSpec.build`.  The
``serial`` and ``thread`` backends resolve specs in-process (so the
arithmetic is identical to the old closures); the ``process`` and
``distributed`` backends pickle the spec with its leg and resolve it on
the worker or shard host.

A :class:`~repro.fl.server.DispatchPlan`'s ``loss_hook`` / ``grad_hook``
fields hold a spec (or ``None``) on every backend.  :func:`resolve_hook`
is the single resolution point, inside :func:`~repro.fl.execution
.run_leg`.

Shipped specs
-------------
:class:`ProximalSpec`
    FedProx — ``(mu/2)·‖w − w_anchor‖²`` added to the local loss.  With
    ``anchor=None`` the anchor defaults to the dispatched state itself,
    which is what FedProx wants and avoids shipping the same ``P``
    floats twice.
:class:`ControlVariateSpec`
    SCAFFOLD — per-step gradient correction ``g ← g + (c − c_i)``, the
    difference computed once at dispatch.
:class:`DistillationSpec`
    FedGen — ``λ·CE(model(G(z, y)), y)`` with a frozen generator.  Each
    spec owns an independent RNG stream (spawned per client at dispatch
    time), so the draws do not depend on the order clients train in —
    the property that makes FedGen safe to parallelise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.tensor import functional as F
from repro.tensor.autograd import no_grad
from repro.tensor.tensor import Tensor

__all__ = [
    "HookSpec",
    "ProximalSpec",
    "ControlVariateSpec",
    "DistillationSpec",
    "resolve_hook",
]


class HookSpec:
    """Base class for picklable local-training hook specifications.

    Subclasses implement :meth:`build`, returning the runnable hook
    (a ``LossHook`` or ``GradHook`` callable, matching the trainer's
    hook protocol).  Specs must be plain data — anything reachable from
    their fields is pickled with every leg by the ``process`` and
    ``distributed`` execution backends, so a spec carries one leg's
    payload and nothing the leg does not read.  A spec declares no
    communication cost: the method bills its per-leg surcharge
    (SCAFFOLD's variate, FedGen's generator) through the server's
    ``charge_round_communication``.
    """

    def build(self, state: Mapping[str, np.ndarray]) -> Callable:
        """Resolve into a runnable hook.

        Parameters
        ----------
        state:
            The model dispatched to the client, as views of its row —
            available so specs can anchor to it without carrying a
            second copy.
        """
        raise NotImplementedError


def resolve_hook(
    hook: "HookSpec | None", state: Mapping[str, np.ndarray]
) -> Callable | None:
    """Turn a plan's hook spec into a runnable callable (or ``None``)."""
    return None if hook is None else hook.build(state)


@dataclass
class ProximalSpec(HookSpec):
    """FedProx loss hook: ``(mu/2)·‖w − w_anchor‖²``.

    ``anchor=None`` (the default) anchors to the dispatched state — the
    FedProx formulation, without double-shipping the global model.
    """

    mu: float
    anchor: Mapping[str, np.ndarray] | None = None

    def build(self, state: Mapping[str, np.ndarray]) -> Callable:
        mu = float(self.mu)
        source = self.anchor if self.anchor is not None else state
        anchors = {name: Tensor(np.asarray(value)) for name, value in source.items()}

        def hook(model, logits, targets):
            if mu == 0.0:
                return None
            penalty = None
            for name, param in model.named_parameters():
                diff = param - anchors[name]
                term = (diff * diff).sum()
                penalty = term if penalty is None else penalty + term
            return penalty * (mu / 2.0)

        return hook


@dataclass
class ControlVariateSpec(HookSpec):
    """SCAFFOLD gradient hook: ``g ← g + correction`` on every step.

    ``correction`` is the client's ``c − c_i``, computed once at
    dispatch: a leg ships one variate-sized mapping and every step adds
    the same array.
    """

    correction: Mapping[str, np.ndarray]

    def build(self, state: Mapping[str, np.ndarray]) -> Callable:
        correction = self.correction

        def hook(named_params: dict) -> None:
            for name, param in named_params.items():
                if param.grad is None:
                    continue
                param.grad = param.grad + correction[name]

        return hook


@dataclass
class DistillationSpec(HookSpec):
    """FedGen loss hook: ``weight · CE(model(G(z, y)), y)``.

    Carries the frozen generator (architecture numbers + state dict),
    the label-sampling distribution, and a dedicated seed.  The hook's
    RNG stream is private to this spec, so draws are identical whether
    clients train sequentially or in parallel.  A round's specs share
    one ``generator_state`` snapshot in-process; each pickled leg
    carries its own copy.
    """

    num_classes: int
    sample_shape: tuple[int, ...]
    z_dim: int
    hidden: int
    generator_state: dict[str, np.ndarray]
    label_probs: np.ndarray
    batch: int
    weight: float
    seed: Any  # int or np.random.SeedSequence
    embedded: bool = False
    _generator: Any = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        # The rebuilt generator is a per-process cache, never shipped.
        state = self.__dict__.copy()
        state["_generator"] = None
        return state

    def _build_generator(self):
        if self._generator is None:
            # Local import: repro.baselines.fedgen imports this module.
            from repro.baselines.fedgen import Generator

            output_dim = int(np.prod(self.sample_shape))
            generator = Generator(
                self.num_classes,
                output_dim,
                z_dim=self.z_dim,
                hidden=self.hidden,
                rng=np.random.default_rng(0),
            )
            generator.load_state_dict(self.generator_state)
            self._generator = generator
        return self._generator

    def build(self, state: Mapping[str, np.ndarray]) -> Callable:
        weight = float(self.weight)
        batch = int(self.batch)
        probs = np.asarray(self.label_probs, dtype=np.float64)
        probs = probs / probs.sum()
        rng = np.random.default_rng(self.seed)
        generator = self._build_generator()
        sample_shape = tuple(self.sample_shape)
        embedded = self.embedded

        def hook(model, logits, targets):
            if weight <= 0:
                return None
            labels = rng.choice(len(probs), size=batch, p=probs)
            z = Tensor(rng.standard_normal((batch, generator.z_dim)).astype(np.float32))
            with no_grad():
                flat = generator(z, labels)
            samples = flat.reshape(batch, *sample_shape)
            gen_logits = (
                model.forward_embedded(samples) if embedded else model(samples)
            )
            return F.cross_entropy(gen_logits, labels) * weight

        return hook
