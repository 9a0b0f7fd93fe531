"""FedAvg and FedProx: aggregation math and proximal behaviour."""

import os
import sys

import numpy as np
import pytest

from repro.fl.config import FLConfig
from repro.fl.simulation import FLSimulation, run_simulation

# The dict-path leg (load_state_dict / SGD / state_dict) and the
# state-dict aggregation paths, the oracles the row engine is held to.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "fl"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "core"))
from _dict_leg import dict_leg  # noqa: E402
from _dict_oracle import flatten_state_dict, weighted_average  # noqa: E402


@pytest.fixture
def cfg(tiny_config):
    return tiny_config


class TestFedAvg:
    def test_global_state_is_weighted_average_of_uploads(self, cfg):
        sim = FLSimulation(cfg)
        server = sim.server
        active = server.select_cohort()
        # capture uploads by re-running the exact local training
        import copy

        global_before = {k: v.copy() for k, v in server.global_state().items()}
        rng_states = [copy.deepcopy(c.rng.bit_generator.state) for c in active]
        server.run_round(active)
        after = server.global_state()

        uploads = []
        for client, state in zip(active, rng_states):
            client.rng.bit_generator.state = state
            uploads.append(dict_leg(sim.trainer, global_before, client.dataset, client.rng))
        expected = weighted_average(
            [state for state, _ in uploads], [stats.num_samples for _, stats in uploads]
        )
        for k in expected:
            np.testing.assert_allclose(after[k], expected[k], rtol=1e-5, atol=1e-6)

    def test_accuracy_improves_over_init(self, cfg):
        cfg = cfg.replace(rounds=6, local_epochs=3)
        result = run_simulation(cfg)
        assert result.best_accuracy > 0.15  # above 10-class chance

    def test_communication_is_2k_models_per_round(self, cfg):
        sim = FLSimulation(cfg)
        history = sim.server.fit()
        k = cfg.clients_per_round
        size = sim.model.num_parameters()
        for rec in history.records:
            assert rec.comm_up_params == k * size
            assert rec.comm_down_params == k * size


class TestFedProx:
    def test_mu_zero_matches_fedavg_exactly(self, cfg):
        fa = run_simulation(cfg.with_method("fedavg"))
        fp = run_simulation(cfg.with_method("fedprox", mu=0.0))
        for k in fa.final_state:
            np.testing.assert_allclose(
                fa.final_state[k], fp.final_state[k], rtol=1e-5, atol=1e-6
            )

    def test_large_mu_keeps_local_models_near_global(self, cfg):
        """The proximal term should shrink the update magnitude."""
        short = cfg.replace(rounds=2)
        free = run_simulation(short.with_method("fedprox", mu=0.0))
        tight = run_simulation(short.with_method("fedprox", mu=50.0))
        sim = FLSimulation(cfg)
        init = flatten_state_dict(sim.model.state_dict())
        move_free = np.linalg.norm(flatten_state_dict(free.final_state) - init)
        move_tight = np.linalg.norm(flatten_state_dict(tight.final_state) - init)
        assert move_tight < move_free

    def test_negative_mu_rejected(self, cfg):
        with pytest.raises(ValueError):
            FLSimulation(cfg.with_method("fedprox", mu=-1.0))

    def test_learns(self, cfg):
        result = run_simulation(cfg.replace(rounds=6).with_method("fedprox", mu=0.01))
        assert result.best_accuracy > 0.15
