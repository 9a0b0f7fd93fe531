"""FedCluster (Chen et al. 2020) — extension baseline.

From the paper's related work (client-grouping category): "FedCluster
groups the clients into multiple clusters that perform federated
learning cyclically in each learning round." Each meta-round the global
model is passed through the clusters in sequence; every cluster runs a
FedAvg step on its members, and the model emerging from the last
cluster becomes the next round's global model. The cyclic schedule
boosts convergence per communication round at the cost of sequential
latency.

Not in the paper's Table II (the authors compare against CluSamp from
the same category); provided as an extension so the grouping category
is represented by both of its canonical members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.client import Client
from repro.fl.config import POSITIVE, knob
from repro.fl.registry import register_method
from repro.fl.server import DispatchPlan, FederatedServer

__all__ = ["FedClusterServer"]


@register_method("fedcluster")
class FedClusterServer(FederatedServer):
    """Cyclic cluster-sequential FedAvg."""

    @dataclass(frozen=True)
    class Options:
        num_clusters: int = knob(None, 2, "fedcluster", "Clusters per round.", check=POSITIVE)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.num_clusters = int(self.options.num_clusters)
        # Static random clustering of the population (the reference
        # algorithm clusters once; data-driven grouping is CluSamp's
        # refinement).
        ids = np.arange(len(self.clients))
        self.rng.shuffle(ids)
        self._clusters = [list(chunk) for chunk in np.array_split(ids, self.num_clusters)]

    def run_round(self, active: list[Client]) -> dict:
        """One meta-round: visit every cluster once, in cyclic order.

        ``active`` determines how many clients participate per cluster
        visit (K split across clusters).  The *cluster* schedule is
        inherently sequential — each cluster trains from the previous
        cluster's FedAvg result — so this overrides the
        dispatch→collect→aggregate driver wholesale; but members
        *within* a visit are independent, so each visit runs through
        the execution backend (:meth:`~FederatedServer.train_cohort`)
        and its average is the configured aggregation operator's
        ``combine`` over the packed uploads (``mean``: the
        :class:`~repro.core.pool.PoolBuffer` row reduction), as
        :meth:`~FederatedServer.aggregate_uploads` averages a round.
        """
        per_cluster = max(1, len(active) // self.num_clusters)
        losses = []
        total_clients = 0
        start = self.round_idx % self.num_clusters
        for offset in range(self.num_clusters):
            cluster = self._clusters[(start + offset) % self.num_clusters]
            pick = self.rng.choice(
                cluster, size=min(per_cluster, len(cluster)), replace=False
            )
            members = [self.clients[i] for i in pick]
            flat = self.global_row()
            results, buf = self.train_cohort(
                members, [DispatchPlan(flat) for _ in members]
            )
            self._global = self.aggregator.combine(
                buf, [r.num_samples for r in results], precise=False
            )
            losses.extend(r.mean_loss for r in results)
            total_clients += len(members)
            # Per visit, by the shared rule: analytic unless the
            # execution backend measured the legs itself.
            self.charge_round_communication(members)
        return {
            "train_loss": float(np.mean(losses)) if losses else None,
            # The cyclic schedule trains per_cluster clients per visit,
            # which need not equal clients_per_round; report the truth
            # for throughput accounting.
            "clients_trained": total_clients,
        }
