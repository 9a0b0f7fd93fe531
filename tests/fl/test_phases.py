"""Phase protocol: select_cohort → dispatch → collect → aggregate."""

import os
import sys

import numpy as np
import pytest

from repro.fl.server import DispatchPlan
from repro.fl.simulation import FLSimulation
from repro.utils.layout import StateLayout

# The state-dict aggregation paths, the oracle the row engine is held to.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "core"))
from _dict_oracle import weighted_average  # noqa: E402


class TestPhaseDriver:
    def test_run_round_calls_phases_in_order(self, tiny_config):
        sim = FLSimulation(tiny_config)
        server = sim.server
        seen = []

        original = {
            "dispatch": server.dispatch,
            "collect": server.collect,
            "aggregate": server.aggregate,
        }

        def spy(name):
            def wrapper(*args, **kwargs):
                seen.append(name)
                return original[name](*args, **kwargs)

            return wrapper

        server.dispatch = spy("dispatch")
        server.collect = spy("collect")
        server.aggregate = spy("aggregate")
        server.run_round(server.select_cohort())
        assert seen == ["dispatch", "collect", "aggregate"]

    def test_default_dispatch_sends_global_state(self, tiny_config):
        sim = FLSimulation(tiny_config)
        active = sim.server.select_cohort()
        plans = sim.server.dispatch(active)
        assert len(plans) == len(active)
        layout = StateLayout.from_state(sim.server.global_state())
        for plan in plans:
            assert isinstance(plan, DispatchPlan)
            assert plan.loss_hook is None and plan.grad_hook is None
            # One float32 row, cut once and shared by the round's plans.
            assert plan.flat is plans[0].flat
            assert plan.flat.dtype == np.float32
            for key, value in sim.server.global_state().items():
                np.testing.assert_array_equal(layout.unflatten(plan.flat)[key], value)

    def test_collect_packs_uploads_into_pool_rows(self, tiny_config):
        sim = FLSimulation(tiny_config)
        server = sim.server
        active = server.select_cohort()
        plans = server.dispatch(active)
        results = server.collect(active, plans)
        assert len(server.uploads) == len(active)
        for i, result in enumerate(results):
            packed = server.uploads.as_state(i)
            for key in result.state:
                np.testing.assert_allclose(
                    packed[key],
                    np.asarray(result.state[key], dtype=np.float32),
                    rtol=1e-6,
                    atol=1e-7,
                )

    def test_upload_buffer_reused_across_rounds(self, tiny_config):
        sim = FLSimulation(tiny_config.replace(rounds=2))
        server = sim.server
        server.run_round(server.select_cohort())
        first = server.uploads
        server.run_round(server.select_cohort())
        assert server.uploads is first

    def test_fedcross_dispatch_tags_model_rows(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("fedcross"))
        server = sim.server
        active = server.select_cohort()
        plans = server.dispatch(active)
        rows = sorted(plan.context["row"] for plan in plans)
        assert rows == list(range(len(active)))
        # Each plan's row is middleware model `row`.
        for plan in plans:
            np.testing.assert_array_equal(plan.flat, server.pool.row(plan.context["row"]))

    def test_fedcross_rejects_wrong_cohort_size(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("fedcross"))
        with pytest.raises(RuntimeError, match="needs exactly"):
            sim.server.dispatch(sim.server.clients[:1])


class TestPhaseOverride:
    def test_custom_dispatch_hook_reaches_clients(self, tiny_config):
        """A user subclass overriding one phase slots into the driver."""
        from repro.baselines.fedavg import FedAvgServer

        calls = []

        class Probed(FedAvgServer):
            def dispatch(self, active):
                plans = super().dispatch(active)
                for plan in plans:
                    plan.context["probed"] = True
                calls.append(len(plans))
                return plans

        sim = FLSimulation(tiny_config)
        server = Probed(
            sim.config,
            sim.fed_dataset,
            sim.model,
            sim.trainer,
            sim.clients,
            np.random.default_rng(0),
        )
        server.fit(1)
        assert calls == [tiny_config.clients_per_round]


# One method per way a global row is produced: ``aggregate_uploads``
# (FedProx, FedGen and CluSamp install it the same way), SCAFFOLD's
# server_lr blend, FedCluster's per-visit mean and FedCross's pool.
@pytest.mark.parametrize("method", ["fedavg", "scaffold", "fedcluster", "fedcross"])
def test_a_global_state_taken_before_a_round_is_unchanged_after_it(tiny_config, method):
    """Aggregates replace the global row and never write it: a
    ``global_state()`` (views of the row) and a plan's shared row taken
    before a round read the same after the round and an evaluation."""
    sim = FLSimulation(tiny_config.with_method(method))
    server = sim.server
    server.run_round(server.select_cohort())
    state = server.global_state()
    frozen = {key: value.copy() for key, value in state.items()}
    flat = server.dispatch(server.select_cohort())[0].flat
    flat_before = flat.copy()
    server.run_round(server.select_cohort())
    server.evaluate()
    for key, value in frozen.items():
        np.testing.assert_array_equal(state[key], value)
    np.testing.assert_array_equal(flat, flat_before)
    assert not np.array_equal(server.global_row(), sim.trainer.layout.flatten(frozen))


class TestPoolBackedAggregation:
    def test_fedavg_aggregate_matches_weighted_average(self, tiny_config):
        sim = FLSimulation(tiny_config)
        server = sim.server
        active = server.select_cohort()
        plans = server.dispatch(active)
        results = server.collect(active, plans)
        got = sim.trainer.layout.unflatten(server.aggregate_uploads(results))
        ref = weighted_average(
            [r.state for r in results], [r.num_samples for r in results]
        )
        for key in ref:
            np.testing.assert_allclose(got[key], ref[key], rtol=1e-5, atol=1e-6)

    def test_aggregate_uploads_requires_collect(self, tiny_config):
        sim = FLSimulation(tiny_config)
        with pytest.raises(RuntimeError, match="collect"):
            sim.server.aggregate_uploads([])
