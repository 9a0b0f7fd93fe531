"""FedAvg (McMahan et al. 2017) — the classic one-to-multi scheme.

Each round the server dispatches the single global model to K sampled
clients, receives their locally trained copies, and replaces the global
model with the sample-size-weighted average. This is the aggregation
scheme whose "coarse-grained averaging" the paper argues eclipses
client knowledge under gradient divergence.

Expressed against the phase protocol, FedAvg is the identity method:
default cohort selection, default dispatch (global model, no hooks),
default collect (uploads packed into :class:`~repro.core.pool.PoolBuffer`
rows), and an aggregate that is one weighted row reduction.  Because it
rides the default collect, FedAvg parallelises for free across the
execution backends (:mod:`repro.fl.execution`): with
``execution="process"`` the single dispatched global state crosses to
the workers through one shared-memory row and the K uploads come back
the same way — bit-identical to the sequential schedule.
"""

from __future__ import annotations

from repro.fl.client import Client
from repro.fl.registry import register_method
from repro.fl.server import DispatchPlan, FederatedServer
from repro.fl.trainer import LocalResult

__all__ = ["FedAvgServer"]


@register_method("fedavg")
class FedAvgServer(FederatedServer):
    """One-to-multi training with weighted-average aggregation."""

    def aggregate(
        self,
        active: list[Client],
        results: list[LocalResult],
        plans: list[DispatchPlan],
    ) -> dict:
        self._global = self.aggregate_uploads(results)
        self.charge_round_communication(active)
        return {"train_loss": self.mean_local_loss(results)}
