"""Federated dataset assembly.

``build_federated_dataset`` is the single entry point experiment configs
use: it constructs the requested synthetic dataset, partitions it across
clients under the requested heterogeneity, and returns a
:class:`FederatedDataset` bundling per-client train sets with the global
test set used for the paper's "test accuracy of the global model"
metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.partition import dirichlet_partition, iid_partition, partition_class_counts
from repro.data.synthetic import (
    make_synthetic_chars,
    make_synthetic_femnist,
    make_synthetic_image_data,
    make_synthetic_sentiment,
)
from repro.utils.knobs import refuse_unknown
from repro.utils.registry import Registry

__all__ = ["FederatedDataset", "build_federated_dataset", "DATASET_BUILDERS"]

#: Dataset name → builder ``(num_clients, heterogeneity, seed, **params)``.
DATASET_BUILDERS = Registry("dataset")


@dataclass
class FederatedDataset:
    """Per-client training data plus the global evaluation set."""

    name: str
    clients: list[ArrayDataset]
    test: ArrayDataset
    num_classes: int
    heterogeneity: str = "natural"
    meta: dict = field(default_factory=dict)

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    def client_sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.clients])

    def class_count_matrix(self) -> np.ndarray:
        """Per-client class histogram (Figure 3's underlying data)."""
        return partition_class_counts(self.clients, self.num_classes)


def _partition(
    train: ArrayDataset, num_clients: int, heterogeneity: str | float, rng: np.random.Generator
) -> tuple[list[ArrayDataset], str]:
    """Partition ``train`` as IID or Dirichlet(beta)."""
    if isinstance(heterogeneity, str) and heterogeneity.lower() == "iid":
        return iid_partition(train, num_clients, rng), "iid"
    beta = float(heterogeneity)
    return (
        dirichlet_partition(train, num_clients, beta, rng),
        f"dirichlet({beta})",
    )


def _build_image(
    name: str, num_classes: int, num_clients: int, heterogeneity: str | float, seed: int,
    samples_per_client: int, image_shape: tuple[int, int, int], noise: float, num_test: int,
    basis_rank: int | None, label_noise: float,
) -> FederatedDataset:
    rng = np.random.default_rng(seed + 1)
    train, test = make_synthetic_image_data(
        num_classes=num_classes,
        num_train=samples_per_client * num_clients,
        num_test=num_test,
        image_shape=image_shape,
        noise=noise,
        basis_rank=basis_rank,
        label_noise=label_noise,
        seed=seed,
    )
    clients, label = _partition(train, num_clients, heterogeneity, rng)
    return FederatedDataset(
        name=name,
        clients=clients,
        test=test,
        num_classes=num_classes,
        heterogeneity=label,
        meta={"image_shape": image_shape, "noise": noise},
    )


@DATASET_BUILDERS.register("synth_cifar10")
def _build_synth_cifar10(
    num_clients, heterogeneity, seed, *, samples_per_client=40, image_shape=(3, 8, 8),
    noise=1.0, num_test=400, basis_rank=None, label_noise=0.35,
) -> FederatedDataset:
    return _build_image(
        "synth_cifar10", 10, num_clients, heterogeneity, seed, samples_per_client,
        image_shape, noise, num_test, basis_rank, label_noise,
    )


@DATASET_BUILDERS.register("synth_cifar100")
def _build_synth_cifar100(
    num_clients, heterogeneity, seed, *, num_classes=100, samples_per_client=60,
    image_shape=(3, 8, 8), noise=1.0, num_test=600, basis_rank=None, label_noise=0.45,
) -> FederatedDataset:
    # CIFAR-100's difficulty: 10x the classes at the same sample budget.
    return _build_image(
        "synth_cifar100", num_classes, num_clients, heterogeneity, seed, samples_per_client,
        image_shape, noise, num_test, basis_rank, label_noise,
    )


@DATASET_BUILDERS.register("synth_femnist")
def _build_synth_femnist(
    num_clients, heterogeneity, seed, *, num_classes=10, samples_per_writer_mean=60.0,
    image_shape=(1, 8, 8), noise=0.6, num_test=400,
) -> FederatedDataset:
    clients, test = make_synthetic_femnist(
        num_writers=num_clients,
        num_classes=num_classes,
        samples_per_writer_mean=samples_per_writer_mean,
        image_shape=image_shape,
        noise=noise,
        num_test=num_test,
        seed=seed,
    )
    return FederatedDataset(
        name="synth_femnist",
        clients=clients,
        test=test,
        num_classes=num_classes,
        heterogeneity="natural",
        meta={"image_shape": image_shape},
    )


@DATASET_BUILDERS.register("synth_shakespeare")
def _build_synth_shakespeare(
    num_clients, heterogeneity, seed, *, vocab_size=30, seq_len=10, samples_per_client=120,
    client_deviation=0.5, num_test=400, concentration=0.3,
) -> FederatedDataset:
    clients, test, vocab = make_synthetic_chars(
        num_clients=num_clients,
        vocab_size=vocab_size,
        seq_len=seq_len,
        samples_per_client=samples_per_client,
        client_deviation=client_deviation,
        num_test=num_test,
        concentration=concentration,
        seed=seed,
    )
    return FederatedDataset(
        name="synth_shakespeare",
        clients=clients,
        test=test,
        num_classes=vocab,
        heterogeneity="natural",
        meta={"vocab_size": vocab, "seq_len": seq_len},
    )


@DATASET_BUILDERS.register("synth_sent140")
def _build_synth_sent140(
    num_clients, heterogeneity, seed, *, vocab_size=60, seq_len=8, samples_per_user_mean=50.0,
    num_test=400,
) -> FederatedDataset:
    users, test, vocab = make_synthetic_sentiment(
        num_users=num_clients,
        vocab_size=vocab_size,
        seq_len=seq_len,
        samples_per_user_mean=samples_per_user_mean,
        num_test=num_test,
        seed=seed,
    )
    return FederatedDataset(
        name="synth_sent140",
        clients=users,
        test=test,
        num_classes=2,
        heterogeneity="natural",
        meta={"vocab_size": vocab, "seq_len": seq_len},
    )


def build_federated_dataset(
    name: str,
    num_clients: int = 20,
    heterogeneity: str | float = "iid",
    seed: int = 0,
    **kwargs,
) -> FederatedDataset:
    """Build a named federated dataset.

    Parameters
    ----------
    name:
        One of ``synth_cifar10``, ``synth_cifar100``, ``synth_femnist``,
        ``synth_shakespeare``, ``synth_sent140``.
    heterogeneity:
        ``"iid"`` or a Dirichlet β (float). Ignored by the naturally
        non-IID datasets (femnist / shakespeare / sent140), matching the
        paper's "−" heterogeneity entries for those rows.
    **kwargs:
        Generator parameters of that dataset (the keyword-only
        parameters of its builder); any other key is a ``ValueError``.
    """
    builder = DATASET_BUILDERS.resolve(name)
    # The builder's keyword-only parameters.
    refuse_unknown(kwargs, sorted(builder.__kwdefaults__), f"{name.lower()} dataset_params")
    return builder(num_clients, heterogeneity, seed, **kwargs)
