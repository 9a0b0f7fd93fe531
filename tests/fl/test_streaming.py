"""Streaming collect: bit-identical to the gathered oracle (ISSUE 4).

The collect phase consumes uploads as legs complete and runs
per-upload server work (``on_upload``) while slower legs still train.
The contract: for every method and every execution backend, a run is
**bit-identical** to the gathered oracle — ``ExecutionBackend.run``,
the same stream drained into plan order, installed by the
``gathered_collect`` fixture (the gathered schedule itself no longer
ships; ISSUE 20) — same histories, same final state, same pool
matrices, same RNG advancement.  All seven registered methods are checked on the serial
backend; the parallel backends are checked on the methods that
exercise their hardest paths (FedCross's incremental Gram, SCAFFOLD's
and FedGen's hook specs).
"""

import os
import sys

import numpy as np
import pytest

from _fits import assert_same_fit, run_fit
from repro.core.gram import cosine_from_gram
from repro.fl.config import FLConfig
from repro.fl.registry import available_methods
from repro.fl.simulation import FLSimulation

# The plain float64 Gram of a pool, the oracle of the tracked one.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "core"))
from _selection_oracle import reference_gram  # noqa: E402

ALL_METHODS = ("fedavg", "fedprox", "scaffold", "fedgen", "clusamp", "fedcluster", "fedcross")


def _config(method: str, execution: str) -> FLConfig:
    return FLConfig(
        method=method,
        dataset="synth_cifar10",
        model="mlp",
        heterogeneity=0.5,
        num_clients=4,
        participation=0.5,
        rounds=2,
        local_epochs=1,
        batch_size=16,
        eval_every=1,
        seed=11,
        execution=execution,
        workers=2,
        dataset_params={"samples_per_client": 20, "num_test": 40},
        method_params={"mu": 0.1} if method == "fedprox" else {},
    )


class TestStreamingBitIdentity:
    def test_all_seven_methods_registered(self):
        assert set(ALL_METHODS) <= set(available_methods())

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_serial_streaming_matches_gathered(self, method, gathered_collect):
        ref = run_fit(_config(method, "serial"), install=gathered_collect)
        got = run_fit(_config(method, "serial"))
        assert_same_fit(ref, got, f"{method}/serial")

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_thread_streaming_matches_gathered(self, method, gathered_collect):
        ref = run_fit(_config(method, "thread"), install=gathered_collect)
        got = run_fit(_config(method, "thread"))
        assert_same_fit(ref, got, f"{method}/thread")

    @pytest.mark.parametrize("method", ["fedcross", "scaffold", "fedgen"])
    def test_process_streaming_matches_gathered(self, method, gathered_collect):
        ref = run_fit(_config(method, "process"), install=gathered_collect)
        got = run_fit(_config(method, "process"))
        assert_same_fit(ref, got, f"{method}/process")

    # Cross-execution-backend streaming equality (the old ad-hoc
    # serial-vs-thread pairwise check) now lives in the full
    # storage × execution × schedule grid of
    # tests/integration/test_backend_matrix.py.


class TestOnUploadHook:
    def test_on_upload_fires_once_per_row(self, tiny_config):
        calls = []
        sim = FLSimulation(tiny_config)
        server = sim.server
        original = server.on_upload
        server.on_upload = lambda row, result: (calls.append(row), original(row, result))
        active = server.select_cohort()
        results = server.collect(active, server.dispatch(active))
        assert sorted(calls) == list(range(len(active)))
        assert len(results) == len(active)

    def test_on_upload_is_order_independent(self, tiny_config, gathered_collect):
        """The hook contract is schedule-independent — the gathered
        oracle fires it in plan order after the run."""
        calls = []
        sim = FLSimulation(tiny_config)
        server = sim.server
        gathered_collect(server)
        server.on_upload = lambda row, result: calls.append(row)
        active = server.select_cohort()
        server.collect(active, server.dispatch(active))
        assert calls == list(range(len(active)))


class TestFedCrossGramUnderStreaming:
    def test_upload_gram_fresh_after_collect(self, tiny_config):
        cfg = tiny_config.with_method("fedcross", alpha=0.8, selection="lowest")
        sim = FLSimulation(cfg)
        server = sim.server
        active = server.select_cohort()
        server.collect(active, server.dispatch(active))
        tracker = server._upload_gram
        assert tracker is not None and tracker.pool is server.uploads
        fresh = reference_gram(server.uploads, server.selector.param_keys)
        np.testing.assert_allclose(tracker.gram, fresh, rtol=1e-9, atol=1e-9)

    def test_pool_gram_serves_middleware_similarity(self, tiny_config):
        cfg = tiny_config.replace(rounds=2).with_method(
            "fedcross", alpha=0.8, selection="lowest"
        )
        sim = FLSimulation(cfg)
        sim.server.fit()
        assert sim.server._pool_gram is not None
        assert sim.server._pool_gram.pool is sim.server.pool
        got = sim.server.middleware_similarity()
        fresh = cosine_from_gram(
            reference_gram(sim.server.pool, sim.server.selector.param_keys)
        )
        np.testing.assert_allclose(got, fresh, rtol=1e-5, atol=1e-6)

    def test_in_order_runs_skip_gram_maintenance(self, tiny_config):
        cfg = tiny_config.with_method("fedcross", alpha=0.8, selection="in_order")
        sim = FLSimulation(cfg)
        server = sim.server
        assert server._track_gram is False
        server.run_round(server.select_cohort())
        assert server._upload_gram is None
        assert server._pool_gram is None
        # Diagnostics still work through the fresh-recompute fallback.
        assert server.middleware_similarity().shape == (
            cfg.clients_per_round,
            cfg.clients_per_round,
        )
        assert server.pool_dispersion() >= 0.0

    def test_checkpoint_restore_invalidates_pool_gram(self, tiny_config):
        cfg = tiny_config.with_method("fedcross", alpha=0.8, selection="lowest")
        sim = FLSimulation(cfg)
        server = sim.server
        server.run_round(server.select_cohort())
        assert server._pool_gram is not None
        server.set_global_state(server.global_state())
        assert server._pool_gram is None
        # middleware setter too
        server.run_round(server.select_cohort())
        server.round_idx += 1
        assert server._pool_gram is not None
        server.middleware = [dict(s) for s in server.middleware]
        assert server._pool_gram is None
