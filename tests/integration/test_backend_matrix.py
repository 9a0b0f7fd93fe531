"""Cross-backend equivalence matrix (ISSUE 5).

One parametrised suite replaces the ad-hoc pairwise checks that used to
live in ``tests/core/test_storage.py`` (dense-vs-memmap fits) and
``tests/fl/test_streaming.py`` (serial-vs-thread collect): a short
FedCross fit must be **bit-identical** across the full grid

    {dense, memmap, sharded} × {serial, thread, process}
                             × {streaming, gathered}

plus the ``distributed`` leg (ISSUE 7): the same fit over two localhost
shard-host processes, with either coordinator-side ``serial`` execution
or the co-located ``distributed`` execution backend (legs train on the
host owning their upload row; the server bills communication as on
every backend) must land in the same cell of the matrix

— same histories (accuracy/loss/train-loss/communication), same final
global state, same final pool matrix — against one reference leg
(dense / serial / gathered).  A smaller method-coverage class keeps the
storage grid honest for a FedAvg-family method (``fedavg``) and a
hook-heavy one (``scaffold``) too, and the hook-carrying methods
(``scaffold``, ``fedgen``, ``fedprox``) are held to their serial fit on
the ``thread``, ``process`` and ``distributed`` execution backends.

Why this is expected to hold exactly: selection runs on the incremental
GramTracker (per-pair contiguous float64 dots — bitwise independent of
backend, shard layout and upload order), cross-aggregation is
elementwise (bit-identical under any block partition), and both
``mean_state`` modes partition rows purely by the byte budget, never
the shard layout.
"""

import numpy as np
import pytest

from _fits import assert_same_fit, run_fit
from repro.fl.config import FLConfig
from repro.fl.simulation import FLSimulation

STORAGES = ("dense", "memmap", "sharded")
EXECUTIONS = ("serial", "thread", "process")
# The shipped streaming collect, and the gathered oracle
# (``backend.run`` — see ``gathered_collect`` in tests/conftest.py).
SCHEDULES = (True, False)

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


@pytest.fixture(scope="module")
def fedcross_reference(gathered_collect):
    """The dense / serial / gathered FedCross leg, run once."""
    return run_fit(_config("fedcross", "dense", "serial"), install=gathered_collect)


class TestFedCrossBackendMatrix:
    @pytest.mark.parametrize("backend", STORAGES)
    @pytest.mark.parametrize("execution", EXECUTIONS)
    @pytest.mark.parametrize(
        "streaming", SCHEDULES, ids=["streaming", "gathered"]
    )
    def test_fit_bit_identical_to_reference(
        self, fedcross_reference, gathered_collect, backend, execution, streaming
    ):
        if (backend, execution, streaming) == ("dense", "serial", False):
            pytest.skip("this cell is the reference leg")
        got = run_fit(
            _config("fedcross", backend, execution),
            install=None if streaming else gathered_collect,
        )
        assert_same_fit(
            fedcross_reference,
            got,
            f"fedcross/{backend}/{execution}/"
            f"{'streaming' if streaming else 'gathered'}",
        )

    def test_sharded_pool_actually_sharded(self):
        """The matrix must be exercising real shards, not a degenerate
        single-span layout."""
        sim = FLSimulation(_config("fedcross", "sharded", "serial"))
        sim.run()
        storage = sim.server.pool.storage
        assert storage.name == "sharded"
        assert storage.num_shards == SHARDS
        assert storage.shard_boundaries() == (0, 1, 3, 4)

    def test_memmap_shard_placement_bit_identical_too(self, fedcross_reference):
        """`FLConfig.shard_placement="memmap"` (the pools-beyond-RAM
        layout) must reach the storage and stay bit-identical."""
        servers = []
        got = run_fit(
            _config("fedcross", "sharded", "serial"),
            install=servers.append,
            shard_placement="memmap",
        )
        assert servers[0].pool.storage.placement == "memmap"
        assert_same_fit(fedcross_reference, got, "fedcross/sharded-memmap")


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


class TestDistributedLeg:
    """The multi-node cell of the matrix (ISSUE 7): pool rows live in
    two localhost shard-host processes behind the socket-RPC transport.
    With ``execution="serial"`` every row crosses the wire through the
    coordinator; with ``execution="distributed"`` each leg trains on
    the host owning its upload row and only scalars come back.  Both
    must be bit-identical to the single-process reference — including
    the communication columns, which the server bills from the round's
    leg counts whatever the execution backend."""

    @pytest.mark.parametrize("execution", ["serial", "distributed"])
    @pytest.mark.parametrize(
        "streaming", SCHEDULES, ids=["streaming", "gathered"]
    )
    def test_fit_bit_identical_to_reference(
        self, fedcross_reference, gathered_collect, execution, streaming
    ):
        got = run_fit(
            _config("fedcross", "distributed", execution),
            install=None if streaming else gathered_collect,
        )
        assert_same_fit(
            fedcross_reference,
            got,
            f"fedcross/distributed/{execution}/"
            f"{'streaming' if streaming else 'gathered'}",
        )

    def test_pool_actually_spans_two_hosts(self):
        sim = FLSimulation(_config("fedcross", "distributed", "serial"))
        sim.run()
        storage = sim.server.pool.storage
        assert storage.name == "distributed"
        assert storage.num_hosts == HOSTS
        assert storage.shard_boundaries() == (0, 2, 4)

    def test_scaffold_with_colocated_execution(self):
        """SCAFFOLD reads every upload state back on the coordinator
        (control-variate updates), driving the lazy remote-row fetch
        path — and its comm must match the serial reference's."""
        ref = run_fit(_config("scaffold", "dense", "serial"))
        got = run_fit(_config("scaffold", "distributed", "distributed"))
        assert_same_fit(ref, got, "scaffold/distributed/distributed")


class TestMethodCoverageAcrossStorage:
    """FedAvg-family reduction path and SCAFFOLD's side-channel packing
    must stay bit-transparent on every storage backend too (the
    successor of the old dense-vs-memmap end-to-end checks)."""

    @pytest.mark.parametrize("method", ["fedavg", "scaffold"])
    @pytest.mark.parametrize("backend", ["memmap", "sharded", "distributed"])
    def test_history_and_state_bit_identical_to_dense(self, method, backend):
        ref = run_fit(_config(method, "dense", "serial"))
        got = run_fit(_config(method, backend, "serial"))
        assert_same_fit(ref, got, f"{method}/{backend}")


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


class TestAsyncRoundLeg:
    """The round-schedule dimension of the matrix (ISSUE 10).

    ``round_mode="async"`` with ``max_staleness=0`` must be bit-identical
    to the sync reference on every backend — including the distributed
    cell, communication columns and all.
    With ``max_staleness=2`` the serial cell stays bitwise (groups
    complete eagerly, so rounds never truly overlap), while genuinely
    overlapped cells (process workers, co-located distributed
    execution) are held to the structural invariants: one record per
    round in order, the ``async`` speculation/reconcile counters, and a
    finite final pool."""

    CELLS = (
        ("dense", "serial"),
        ("dense", "process"),
        ("distributed", "distributed"),
    )

    @pytest.mark.parametrize("backend,execution", CELLS)
    def test_zero_staleness_bit_identical(
        self, fedcross_reference, backend, execution
    ):
        config = _config("fedcross", backend, execution).replace(
            round_mode="async", max_staleness=0
        )
        assert_same_fit(
            fedcross_reference,
            run_fit(config),
            f"fedcross/{backend}/{execution}/async-s0",
        )

    def test_serial_overlap_window_bit_identical(self, fedcross_reference):
        config = _config("fedcross", "dense", "serial").replace(
            round_mode="async", max_staleness=2
        )
        assert_same_fit(
            fedcross_reference, run_fit(config), "fedcross/dense/serial/async-s2"
        )

    @pytest.mark.parametrize(
        "backend,execution", (("dense", "process"), ("distributed", "distributed"))
    )
    def test_overlapped_invariants(self, backend, execution):
        config = _config("fedcross", backend, execution).replace(
            round_mode="async", max_staleness=2
        )
        result, matrix = run_fit(config)
        records = result.history.records
        assert [r.round_idx for r in records] == list(
            range(config.rounds)
        ), f"{backend}/{execution}"
        for r in records:
            info = r.extras["async"]
            assert info["speculative_blends"] >= 0
            assert info["max_dispatch_staleness"] <= 2
            assert r.comm_up_params > 0 and r.comm_down_params > 0
            assert r.accuracy is not None and 0.0 <= r.accuracy <= 1.0
        assert matrix is not None and np.isfinite(matrix).all()
