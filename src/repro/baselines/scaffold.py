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

import numpy as np

from repro.fl.client import Client
from repro.fl.hooks import ControlVariateSpec
from repro.fl.registry import register_method
from repro.fl.server import DispatchPlan, FederatedServer
from repro.fl.trainer import LocalResult
from repro.utils.params import tree_map, zeros_like_state

__all__ = ["ScaffoldServer"]


@register_method("scaffold")
class ScaffoldServer(FederatedServer):
    """Control-variate-corrected FedAvg."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._param_keys = {name for name, _ in self.model.named_parameters()}
        param_only = {k: v for k, v in self._global.items() if k in self._param_keys}
        self._c_global = zeros_like_state(param_only)
        self._c_clients: dict[int, dict] = {}
        self.server_lr = float(self.config.method_params.get("server_lr", 1.0))

    def dispatch(self, active: list[Client]) -> list[DispatchPlan]:
        """Global model plus each client's control-variate grad spec.

        The correction ``c - c_i`` is computed once per client here and
        rides as a picklable :class:`~repro.fl.hooks.ControlVariateSpec`
        (one variate-sized mapping per leg); every local step adds it to
        the gradient.  ``context`` keeps the server-side handle on
        ``c_i`` for the variate refresh.
        """
        flat = self.global_row()
        plans = []
        for client in active:
            c_local = self._c_clients.get(client.client_id)
            if c_local is None:
                c_local = zeros_like_state(self._c_global)
            correction = tree_map(lambda c, ci: c - ci, self._c_global, c_local)
            plans.append(
                DispatchPlan(
                    flat,
                    grad_hook=ControlVariateSpec(correction),
                    context={"c_local": c_local},
                )
            )
        return plans

    def aggregate(
        self,
        active: list[Client],
        results: list[LocalResult],
        plans: list[DispatchPlan],
    ) -> dict:
        x = self._global
        deltas_c = []
        for client, result, plan in zip(active, results, plans):
            c_local = plan.context["c_local"]
            # Option II variate refresh: c_i+ = c_i - c + (x - y_i)/(steps*lr)
            steps = max(result.num_steps, 1)
            scale = 1.0 / (steps * self.trainer.lr)
            c_new = {
                k: c_local[k]
                - self._c_global[k]
                + scale * (np.asarray(x[k], dtype=np.float64) - result.state[k])
                for k in self._c_global
            }
            deltas_c.append(tree_map(lambda a, b: a - b, c_new, c_local))
            self._c_clients[client.client_id] = c_new

        # Model update: x <- x + server_lr * mean(y_i - x) over active clients.
        mean_y = self.aggregate_uploads(results)
        self._global = {
            k: np.asarray(x[k], dtype=np.float64) * (1 - self.server_lr)
            + self.server_lr * np.asarray(mean_y[k], dtype=np.float64)
            for k in x
        }
        self._global = {k: v.astype(np.asarray(x[k]).dtype) for k, v in self._global.items()}

        # Variate update: c <- c + (|S|/N) * mean(delta_c), as one uniform
        # row reduction over the packed variate deltas (float64 rows —
        # the variates are float64 and must not be narrowed).
        frac = len(active) / len(self.clients)
        mean_delta = self.pack_states(deltas_c, dtype=np.float64).mean_state(
            precise=False
        )
        self._c_global = tree_map(lambda c, d: c + frac * d, self._c_global, mean_delta)

        # A control variate rides alongside every leg's model, both ways.
        variate_size = sum(int(np.asarray(v).size) for v in self._c_global.values())
        self.charge_round_communication(
            active, down_surcharge=variate_size, up_surcharge=variate_size
        )
        return {"train_loss": self.mean_local_loss(results)}
