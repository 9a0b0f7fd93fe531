"""The client abstraction.

A :class:`Client` owns a private shard and an independent RNG stream.
It never exposes raw data to the server — only trained models —
matching the paper's privacy constraint that "none of the clients send
their raw data to the cloud server".
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset

__all__ = ["Client"]


class Client:
    """One federated participant.

    Parameters
    ----------
    client_id:
        Stable identifier (index into the population).
    dataset:
        The client's private training shard.
    rng:
        Independent generator driving this client's batch shuffling.
    """

    def __init__(self, client_id: int, dataset: ArrayDataset, rng: np.random.Generator) -> None:
        self.client_id = client_id
        self.dataset = dataset
        self.rng = rng

    def __len__(self) -> int:
        return len(self.dataset)

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def class_counts(self, num_classes: int) -> np.ndarray:
        """Label histogram — the only distribution statistic a client may
        share (used by FedGen; CluSamp deliberately avoids even this)."""
        return self.dataset.class_counts(num_classes)

    def __repr__(self) -> str:
        return f"Client(id={self.client_id}, n={len(self.dataset)})"
