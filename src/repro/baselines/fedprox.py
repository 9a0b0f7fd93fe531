"""FedProx (Li et al. 2020) — proximal-term regularised local training.

Identical to FedAvg except that every client minimises
``f_i(w) + (mu/2) ||w - w_global||^2``, penalising drift from the
dispatched global model. The paper tunes ``mu`` per dataset from
{0.001, 0.01, 0.1, 1.0} (best: 0.01 CIFAR-10, 0.001 CIFAR-100,
0.1 FEMNIST).

The proximal term travels as a picklable
:class:`~repro.fl.hooks.ProximalSpec` (anchored to the dispatched
state), so FedProx runs unchanged on every execution backend —
including ``process`` workers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fl.client import Client
from repro.fl.config import NON_NEGATIVE, knob
from repro.fl.hooks import ProximalSpec
from repro.fl.registry import register_method
from repro.fl.server import DispatchPlan, FederatedServer
from repro.fl.trainer import LocalResult

__all__ = ["FedProxServer"]


@register_method("fedprox")
class FedProxServer(FederatedServer):
    """FedAvg + client-side proximal term with weight ``mu``."""

    @dataclass(frozen=True)
    class Options:
        mu: float = knob(None, 0.01, "fedprox", "Proximal-term weight.", check=NON_NEGATIVE)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mu = float(self.options.mu)

    def dispatch(self, active: list[Client]) -> list[DispatchPlan]:
        """Global model plus the proximal loss spec anchored to it.

        ``ProximalSpec(mu)`` anchors to the dispatched state itself, so
        the anchor never ships twice.
        """
        spec = ProximalSpec(self.mu)
        flat = self.global_row()
        return [DispatchPlan(flat, loss_hook=spec) for _ in active]

    def aggregate(
        self,
        active: list[Client],
        results: list[LocalResult],
        plans: list[DispatchPlan],
    ) -> dict:
        self._global = self.aggregate_uploads(results)
        self.charge_round_communication(active)
        return {"train_loss": self.mean_local_loss(results)}
