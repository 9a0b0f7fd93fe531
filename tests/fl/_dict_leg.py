"""The dict-path leg, kept as a test oracle for the row-bound trainer.

A trainer trains its model inside one float32 row
(:meth:`repro.fl.trainer.LocalTrainer.train`).  Before that, a leg
loaded the dispatched state dict into the model, ran the SGD loop and
copied the trained state dict back out.  :func:`dict_leg` is that leg,
written against the public ``Module`` API only
(``load_state_dict`` / ``state_dict``), so the shipped trainer — and any
backend a third party writes against the dict API — is held to it bit
for bit.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.data.dataset import DataLoader
from repro.fl.hooks import resolve_hook
from repro.fl.trainer import LocalResult, LocalTrainer, TrainStats
from repro.optim.sgd import SGD
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


def dict_leg(
    trainer: LocalTrainer,
    state: Mapping[str, np.ndarray],
    dataset,
    rng: np.random.Generator,
    *,
    loss_hook=None,
    grad_hook=None,
    lr_override: float | None = None,
) -> tuple[dict, TrainStats]:
    """Train ``trainer.model`` from ``state``; return the trained state
    dict and the leg's scalars.  Hooks are runnable callables."""
    model = trainer.model
    model.load_state_dict(dict(state))
    model.train()
    optimizer = SGD(
        model.parameters(),
        lr=lr_override if lr_override is not None else trainer.lr,
        momentum=trainer.momentum,
        weight_decay=trainer.weight_decay,
    )
    loader = DataLoader(dataset, batch_size=trainer.batch_size, shuffle=True, rng=rng)
    named = dict(model.named_parameters())
    total_loss = 0.0
    steps = 0
    for _ in range(trainer.local_epochs):
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
    return model.state_dict(), TrainStats(len(dataset), steps, total_loss / max(steps, 1))


def dict_plan_leg(trainer: LocalTrainer, client, plan, layout) -> LocalResult:
    """A dispatch plan's leg on the dict path: the dispatched state is
    ``layout.unflatten(plan.flat)``, the plan's hook specs resolve against
    it, and ``client.rng`` advances.  ``result.state`` is the trained
    state dict."""
    state = layout.unflatten(plan.flat)
    trained, stats = dict_leg(
        trainer,
        state,
        client.dataset,
        client.rng,
        loss_hook=resolve_hook(plan.loss_hook, state),
        grad_hook=resolve_hook(plan.grad_hook, state),
        lr_override=plan.lr_override,
    )
    return LocalResult(trained, *stats)
