"""Fit equivalence off the layer-product grid.

The storage × execution × schedule × faults × aggregator × screen
products of FedCross, FedAvg and FedCluster are generated in
``tests/integration/test_layer_products.py``.  What stays here crosses
a layer with something that suite holds fixed: the hook-carrying
methods (``scaffold``, ``fedgen``, ``fedprox``) on every parallel
execution backend, SCAFFOLD's side-channel packing on every storage, a
conv model's legs on threads, and memmap shard placement — each
bit-identical to its dense / serial fit.
"""

import numpy as np
import pytest

from _fits import assert_same_fit, run_fit
from repro.fl.config import FLConfig

# 3 shards over K=4 → uneven spans (1, 2, 1): exercises cross-shard
# blocks, not just the trivial even split.
SHARDS = 3

# 2 localhost shard hosts over K=4 → spans (2, 2); kept at the pooled
# default so every distributed test reuses one warm host cluster.
HOSTS = 2


def _config(method: str, backend: str, execution: str) -> FLConfig:
    return FLConfig(
        method=method,
        dataset="synth_cifar10",
        model="mlp",
        heterogeneity=0.5,
        num_clients=4,
        participation=1.0,
        rounds=2,
        local_epochs=1,
        batch_size=16,
        eval_every=1,
        seed=13,
        backend=backend,
        shards=SHARDS if backend == "sharded" else None,
        hosts=HOSTS if backend == "distributed" else None,
        execution=execution,
        workers=2,
        dataset_params={"samples_per_client": 20, "num_test": 40},
    )


class TestConvKernelLeg:
    """The conv path under concurrent legs: ``conv2d`` caches window
    *plans* (shape/stride tuples) process-wide but keeps its window view
    and columns per call, so two threads training CNN legs at once must
    land on the serial leg's bits."""

    def test_cnn_thread_workers_bit_identical_to_serial(self):
        def config(execution):
            return _config("fedcross", "dense", execution).replace(
                model="cnn_s",
                dataset_params={
                    "samples_per_client": 20, "num_test": 40, "image_shape": (3, 8, 8),
                },
            )

        ref = run_fit(config("serial"))
        got = run_fit(config("thread"))
        assert_same_fit(ref, got, "fedcross/cnn_s/thread-vs-serial")


class TestScaffoldAcrossStorage:
    """SCAFFOLD's side-channel packing stays bit-transparent on every
    storage backend (FedAvg's reduction path is a product cell)."""

    @pytest.mark.parametrize("backend", ["memmap", "sharded", "distributed"])
    def test_history_and_state_bit_identical_to_dense(self, backend):
        ref = run_fit(_config("scaffold", "dense", "serial"))
        got = run_fit(_config("scaffold", backend, "serial"))
        assert_same_fit(ref, got, f"scaffold/{backend}")


def test_memmap_shard_placement_reaches_the_shards_bit_identically():
    servers = []
    got = run_fit(
        _config("fedcross", "sharded", "serial"),
        install=servers.append,
        shard_placement="memmap",
    )
    storage = servers[0].pool.storage
    assert storage.placement == "memmap"
    assert storage.shard_boundaries() == (0, 1, 3, 4)
    assert_same_fit(run_fit(_config("fedcross", "dense", "serial")), got, "sharded-memmap")


HOOK_METHODS = ("scaffold", "fedgen", "fedprox")


def _run_hooked(config: FLConfig):
    """A fit plus SCAFFOLD's final global control variate (or ``None``)."""
    servers = []
    fit = run_fit(config, install=servers.append)
    return fit, getattr(servers[0], "_c_global", None)


@pytest.fixture(scope="module")
def hook_references():
    """Each hook-carrying method's dense / serial fit, run once."""
    cache = {}

    def reference(method):
        if method not in cache:
            cache[method] = _run_hooked(_config(method, "dense", "serial"))
        return cache[method]

    return reference


class TestHookMethodsAcrossExecution:
    """Hook specs are plain data, pickled with each leg on ``process``
    and ``distributed``: SCAFFOLD (one control-variate correction per
    leg), FedGen (the frozen generator) and FedProx (the proximal term)
    must land in the dense / serial cell on every parallel backend —
    histories, communication columns included, and final state.  Full
    participation over two rounds makes round 1's variates non-zero and
    round 1's FedGen legs carry a generator."""

    @pytest.mark.parametrize("execution", ["thread", "process", "distributed"])
    @pytest.mark.parametrize("method", HOOK_METHODS)
    def test_fit_bit_identical_to_serial(self, hook_references, method, execution):
        backend = "distributed" if execution == "distributed" else "dense"
        ref, ref_c = hook_references(method)
        got, got_c = _run_hooked(_config(method, backend, execution))
        label = f"{method}/{backend}/{execution}"
        assert_same_fit(ref, got, label)
        if method == "scaffold":
            assert np.any(ref_c != 0), label
            assert got_c.dtype == ref_c.dtype, label
            np.testing.assert_array_equal(ref_c, got_c, err_msg=label)
