"""Shared fixtures for the test-suite."""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import numpy as np
import pytest

from _fits import TINY
from repro.data.dataset import ArrayDataset
from repro.fl.config import FLConfig


@pytest.fixture(scope="session", autouse=True)
def memmap_dir_on_tmpfs():
    """Put the suite's memmap pool files on tmpfs.

    ``memmap`` storage creates and unlinks one temporary file per pool
    it allocates; on a disk mounted with ``discard`` each unlink can
    cost ~0.1 s, which makes wall-clock, not CPU, the suite's limit.
    When ``/dev/shm`` is a writable directory and ``REPRO_MEMMAP_DIR``
    is unset, the session points it at a private directory there,
    removed at session end.  The ``np.memmap`` code path is unchanged;
    tests that set their own ``REPRO_MEMMAP_DIR`` (``tmp_path``) still
    write to disk.
    """
    shm = "/dev/shm"
    if os.environ.get("REPRO_MEMMAP_DIR") or not (
        os.path.isdir(shm) and os.access(shm, os.W_OK)
    ):
        yield
        return
    directory = tempfile.mkdtemp(prefix="repro-tests-", dir=shm)
    os.environ["REPRO_MEMMAP_DIR"] = directory
    try:
        yield
    finally:
        os.environ.pop("REPRO_MEMMAP_DIR", None)
        shutil.rmtree(directory, ignore_errors=True)


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
    return FLConfig(**TINY)


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


class VirtualTime:
    """Injectable monotonic clock + sleep that never waits for real."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture
def virtual_time() -> VirtualTime:
    """A fresh virtual clock for a scheduler or fault engine under test."""
    return VirtualTime()


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
