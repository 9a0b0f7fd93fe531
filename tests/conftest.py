"""Shared fixtures for the test-suite."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.fl.config import FLConfig


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_linear_dataset(rng) -> ArrayDataset:
    """A linearly separable 3-class dataset (models should ace it)."""
    n, d, k = 90, 6, 3
    centers = rng.standard_normal((k, d)) * 4.0
    labels = np.repeat(np.arange(k), n // k)
    features = centers[labels] + rng.standard_normal((n, d)) * 0.3
    return ArrayDataset(features.astype(np.float32), labels)


@pytest.fixture
def tiny_config() -> FLConfig:
    """Smallest sensible FL config for fast end-to-end tests."""
    return FLConfig(
        method="fedavg",
        dataset="synth_cifar10",
        model="mlp",
        heterogeneity=0.5,
        num_clients=6,
        participation=0.5,
        rounds=3,
        local_epochs=1,
        batch_size=16,
        eval_every=1,
        seed=7,
        dataset_params={"samples_per_client": 30, "num_test": 120},
    )


@pytest.fixture()
def inherited_blas_threads():
    """This process's BLAS width with no compute children owned.

    A shard fleet pooled by an earlier test still holds the
    coordinator's share down (``repro.utils.cpu.reserve_for_children``)
    until it is shut down; afterwards no hold may be left behind.
    """
    from repro.utils import cpu

    def reap_fleets():
        cluster = sys.modules.get("repro.distributed.cluster")
        if cluster is not None:
            cluster.shutdown_clusters()
        assert not cpu._HOLDS and not cpu._INHERITED

    reap_fleets()
    width = cpu.blas_threads()
    if width is None:
        pytest.skip("no known BLAS loaded in this interpreter")
    yield width
    reap_fleets()


def _use_gathered_collect(server) -> None:
    """Swap ``server.collect`` for the gathered oracle.

    The shipped collect consumes the backend's as-completed stream; the
    oracle is ``ExecutionBackend.run`` — the same stream drained into
    plan order — with ``on_upload`` fired in plan order after the last
    leg.  Runs under either must be bit-identical.
    """

    def collect(active, plans):
        uploads = server._round_uploads(len(active))
        rows = [plan.context.get("row", i) for i, plan in enumerate(plans)]
        server._upload_rows = rows
        results = server.executor.run(
            server.trainer, active, plans, rows, uploads
        )
        for i, result in enumerate(results):
            server.on_upload(rows[i], result)
        return results

    server.collect = collect


@pytest.fixture(scope="session")
def gathered_collect():
    """``gathered_collect(server)`` installs the gathered-schedule oracle."""
    return _use_gathered_collect
