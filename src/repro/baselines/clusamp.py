"""CluSamp (Fraboni et al. 2021) — clustered client sampling.

Clients are grouped by the similarity of their last model update (the
paper selects "model gradient similarity as the criteria for client
grouping rather than the sample size", since sharing data distributions
would leak privacy), and each round one representative is sampled per
cluster. This reduces the variance of the aggregation compared with
uniform sampling while keeping FedAvg's aggregation rule and Low
communication class.

Clients that have never participated yet have no update vector; they
form a common "cold" pool sampled uniformly, so early rounds behave
like FedAvg and clustering sharpens as coverage grows.

Only ``select_cohort`` and ``aggregate`` are custom: local training
rides the default hook-free collect, so CluSamp runs unchanged on
every execution backend (its aggregate reads update vectors straight
off the upload-buffer rows the backends pack into).
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import Client
from repro.fl.registry import register_method
from repro.fl.server import DispatchPlan, FederatedServer
from repro.fl.trainer import LocalResult

__all__ = ["CluSampServer"]


@register_method("clusamp")
class CluSampServer(FederatedServer):
    """FedAvg aggregation with cluster-stratified client sampling."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # The parameter columns of a model row, in sorted-key order.
        self._param_mask = self._layout.mask(
            name for name, _ in self.model.named_parameters()
        )
        # Last parameter-update direction per client id (flattened).
        self._updates: dict[int, np.ndarray] = {}

    # -- clustering --------------------------------------------------------
    def _cluster_assignments(self, k: int) -> list[list[int]]:
        """Partition client ids into up to ``k`` groups by update similarity."""
        from scipy.cluster.vq import kmeans2  # this method's dependency alone, loaded by its runs

        known = sorted(self._updates)
        unknown = [c.client_id for c in self.clients if c.client_id not in self._updates]
        if len(known) < 2 * k:
            # Not enough participation history: single cold pool.
            return [[c.client_id for c in self.clients]]

        vectors = np.stack([self._updates[i] for i in known])
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        vectors = vectors / np.maximum(norms, 1e-12)
        _, labels = kmeans2(vectors.astype(np.float64), k, minit="++", seed=1234)
        groups: list[list[int]] = [[] for _ in range(k)]
        for cid, lab in zip(known, labels):
            groups[int(lab)].append(cid)
        groups = [g for g in groups if g]
        if unknown:
            groups.append(unknown)
        return groups

    def select_cohort(self) -> list[Client]:
        """One representative per cluster, size-weighted within cluster."""
        k = self.config.clients_per_round
        groups = self._cluster_assignments(k)
        by_id = {c.client_id: c for c in self.clients}
        chosen: list[Client] = []
        group_cycle = list(groups)
        self.rng.shuffle(group_cycle)
        gi = 0
        while len(chosen) < k:
            group = group_cycle[gi % len(group_cycle)]
            candidates = [cid for cid in group if by_id[cid] not in chosen]
            gi += 1
            if not candidates:
                continue
            sizes = np.array([by_id[cid].num_samples for cid in candidates], dtype=np.float64)
            pick = self.rng.choice(candidates, p=sizes / sizes.sum())
            chosen.append(by_id[int(pick)])
        return chosen

    # -- round ---------------------------------------------------------------
    def aggregate(
        self,
        active: list[Client],
        results: list[LocalResult],
        plans: list[DispatchPlan],
    ) -> dict:
        mask = self._param_mask
        before = self._global[mask].astype(np.float64)
        for client, row in zip(active, self._upload_rows):
            after = self.uploads.row(row)[mask].astype(np.float64)
            self._updates[client.client_id] = after - before
        self._global = self.aggregate_uploads(results)
        self.charge_round_communication(active)
        return {"train_loss": self.mean_local_loss(results)}
