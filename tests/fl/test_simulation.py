"""FLSimulation assembly and the registry."""

import numpy as np
import pytest

from repro.fl.config import FLConfig
from repro.fl.registry import available_methods
from repro.fl.simulation import FLSimulation, default_model_params, run_simulation


class TestRegistry:
    def test_all_six_methods_registered(self):
        assert set(available_methods()) >= {
            "fedavg",
            "fedprox",
            "scaffold",
            "fedgen",
            "clusamp",
            "fedcross",
        }


class TestModelParamInference:
    def test_vision_model_gets_input_shape(self, tiny_config):
        from repro.data.federated import build_federated_dataset

        fed = build_federated_dataset(
            "synth_cifar10", num_clients=6, heterogeneity=0.5, seed=0,
            samples_per_client=20,
        )
        params = default_model_params(tiny_config.replace(model="cnn_s"), fed)
        assert params["input_shape"] == (3, 8, 8)
        assert params["num_classes"] == 10

    def test_mlp_gets_flat_dim(self, tiny_config):
        from repro.data.federated import build_federated_dataset

        fed = build_federated_dataset(
            "synth_cifar10", num_clients=6, heterogeneity=0.5, seed=0,
            samples_per_client=20,
        )
        params = default_model_params(tiny_config, fed)
        assert params["input_dim"] == 192

    def test_lstm_gets_vocab(self, tiny_config):
        from repro.data.federated import build_federated_dataset

        fed = build_federated_dataset("synth_shakespeare", num_clients=6, seed=0)
        params = default_model_params(tiny_config.replace(model="charlstm"), fed)
        assert params["vocab_size"] == fed.meta["vocab_size"]


class TestSimulation:
    def test_runs_and_reports(self, tiny_config):
        result = run_simulation(tiny_config)
        assert len(result.history) == tiny_config.rounds
        assert 0.0 <= result.final_accuracy <= 1.0
        assert set(result.final_state) == set(
            FLSimulation(tiny_config).model.state_dict()
        )

    def test_client_count_mismatch_raises(self, tiny_config):
        from repro.data.federated import build_federated_dataset

        fed = build_federated_dataset(
            "synth_cifar10", num_clients=3, heterogeneity=0.5, seed=0,
            samples_per_client=20,
        )
        with pytest.raises(ValueError, match="clients"):
            FLSimulation(tiny_config, fed_dataset=fed)

    def test_same_seed_identical_histories(self, tiny_config):
        a = run_simulation(tiny_config)
        b = run_simulation(tiny_config)
        assert a.history.accuracies == b.history.accuracies
        for k in a.final_state:
            np.testing.assert_array_equal(a.final_state[k], b.final_state[k])

    def test_different_seed_differs(self, tiny_config):
        a = run_simulation(tiny_config)
        b = run_simulation(tiny_config.replace(seed=8))
        assert not all(
            np.allclose(a.final_state[k], b.final_state[k]) for k in a.final_state
        )

    def test_eval_cadence(self, tiny_config):
        cfg = tiny_config.replace(rounds=6, eval_every=3)
        result = run_simulation(cfg)
        evaluated = [r.round_idx for r in result.history.records if r.accuracy is not None]
        assert evaluated == [2, 5]

    def test_comm_recorded_every_round(self, tiny_config):
        result = run_simulation(tiny_config)
        assert all(
            r.comm_up_params > 0 and r.comm_down_params > 0
            for r in result.history.records
        )


class TestServerBase:
    def test_sampling_returns_distinct_clients(self, tiny_config):
        sim = FLSimulation(tiny_config)
        active = sim.server.select_cohort()
        assert len(active) == tiny_config.clients_per_round
        assert len({c.client_id for c in active}) == len(active)

    def test_base_class_abstract_methods(self, tiny_config):
        from repro.fl.server import FederatedServer

        sim = FLSimulation(tiny_config)
        base = FederatedServer(
            tiny_config, sim.fed_dataset, sim.model, sim.trainer, sim.clients,
            np.random.default_rng(0),
        )
        with pytest.raises(NotImplementedError):
            base.run_round([])
        # The FedAvg family's global model lives in the base class.
        for key, value in sim.model.state_dict().items():
            np.testing.assert_array_equal(base.global_state()[key], value)
