"""SCAFFOLD (Karimireddy et al. 2020) — stochastic controlled averaging.

Corrects client drift with control variates: the server keeps a global
control variate ``c`` and each client a local ``c_i``; every local SGD
step uses the corrected gradient ``g - c_i + c``. After local training
the client refreshes its variate with option-II of the paper,
``c_i+ = c_i - c + (x - y_i) / (steps * lr)``, and uploads both the
model and the variate delta — which is why Table I classes SCAFFOLD's
communication overhead as High (2K models + 2K control variables per
round).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pool import PoolBuffer
from repro.fl.client import Client
from repro.fl.config import POSITIVE, knob
from repro.fl.hooks import ControlVariateSpec
from repro.fl.registry import register_method
from repro.fl.server import DispatchPlan, FederatedServer
from repro.fl.trainer import LocalResult
from repro.utils.layout import StateLayout

__all__ = ["ScaffoldServer"]


@register_method("scaffold")
class ScaffoldServer(FederatedServer):
    """Control-variate-corrected FedAvg.

    Control variates are rows over the model's parameter columns
    (``layout.mask(param_keys)``, sorted-key order).  ``_c_global``
    starts as float32 zeros and widens to float64 at the first
    aggregate (NumPy promotion of the float64 refresh), so a first
    round's correction is float32 and later ones float64.  The variate
    mean reduces a float64 buffer laid out over the parameters alone,
    so its row blocks do not depend on the model's buffers.
    """

    @dataclass(frozen=True)
    class Options:
        server_lr: float = knob(None, 1.0, "scaffold", "Server step size.", check=POSITIVE)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        param_keys = {name for name, _ in self.model.named_parameters()}
        self._param_mask = self._layout.mask(param_keys)
        # Each parameter's (key, span, shape) in a variate row: a
        # correction row ships as the per-parameter mapping the hook reads.
        self._variate_fields, offset = [], 0
        for spec in self._layout.fields:
            if spec.key in param_keys:
                span = slice(offset, offset + spec.size)
                self._variate_fields.append((spec.key, span, spec.shape))
                offset += spec.size
        self._c_global = np.zeros(offset, dtype=np.float32)
        self._c_clients: dict[int, np.ndarray] = {}
        self._variate_layout = StateLayout.from_state(
            {key: np.empty(shape) for key, _, shape in self._variate_fields}
        )
        self._delta_buffers: dict[int, PoolBuffer] = {}
        self.server_lr = float(self.options.server_lr)

    def dispatch(self, active: list[Client]) -> list[DispatchPlan]:
        """Global model plus each client's control-variate grad spec.

        The correction ``c - c_i`` is computed once per client here and
        rides as a picklable :class:`~repro.fl.hooks.ControlVariateSpec`
        (one variate-sized mapping per leg, views of the correction
        row); every local step adds it to the gradient.  ``context``
        keeps the server-side handle on ``c_i`` for the variate refresh.
        """
        flat = self.global_row()
        plans = []
        for client in active:
            c_local = self._c_clients.get(client.client_id)
            if c_local is None:
                c_local = np.zeros_like(self._c_global)
            correction = self._c_global - c_local
            spec = ControlVariateSpec(
                {key: correction[span].reshape(shape) for key, span, shape in self._variate_fields}
            )
            plans.append(DispatchPlan(flat, grad_hook=spec, context={"c_local": c_local}))
        return plans

    def aggregate(
        self,
        active: list[Client],
        results: list[LocalResult],
        plans: list[DispatchPlan],
    ) -> dict:
        mask = self._param_mask
        x = self._global.astype(np.float64)
        x_params = x[mask]
        deltas = self._variate_deltas(len(active))
        for i, (client, result, plan) in enumerate(zip(active, results, plans)):
            c_local = plan.context["c_local"]
            # Option II variate refresh: c_i+ = c_i - c + (x - y_i)/(steps*lr)
            steps = max(result.num_steps, 1)
            scale = 1.0 / (steps * self.trainer.lr)
            y = self.uploads.row(self._upload_rows[i])[mask]
            c_new = c_local - self._c_global + scale * (x_params - y)
            deltas.set_row(i, c_new - c_local)
            self._c_clients[client.client_id] = c_new

        # Model update: x <- x + server_lr * mean(y_i - x) over active clients.
        mean_y = self.aggregate_uploads(results)
        self._global = (
            x * (1 - self.server_lr) + self.server_lr * mean_y.astype(np.float64)
        ).astype(np.float32)

        # Variate update: c <- c + (|S|/N) * mean(delta_c), as one uniform
        # row reduction over the variate deltas (float64 rows — the
        # variates are float64 and must not be narrowed).
        frac = len(active) / len(self.clients)
        self._c_global = self._c_global + frac * deltas.mean_state(precise=False)

        # A control variate rides alongside every leg's model, both ways.
        variate_size = self._c_global.size
        self.charge_round_communication(
            active, down_surcharge=variate_size, up_surcharge=variate_size
        )
        return {"train_loss": self.mean_local_loss(results)}

    def _variate_deltas(self, k: int) -> PoolBuffer:
        """Reused ``(k, variate size)`` float64 buffer on the backend."""
        buf = self._delta_buffers.get(k)
        if buf is None:
            buf = PoolBuffer.zeros(
                self._variate_layout, k, dtype=np.float64, backend=self.backend,
                backend_options=self.backend_options,
            )
            self._delta_buffers[k] = buf
        return buf
