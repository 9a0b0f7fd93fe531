"""FedGen: generator, distillation hook, communication overhead."""

import numpy as np
import pytest

from repro.baselines.fedgen import Generator
from repro.fl.simulation import FLSimulation, run_simulation
from repro.tensor.tensor import Tensor
from repro.utils.rng import default_rng


class TestGenerator:
    def test_output_shape(self):
        gen = Generator(num_classes=5, output_dim=48, z_dim=8, rng=default_rng(0))
        z = Tensor(np.zeros((3, 8), dtype=np.float32))
        out = gen(z, np.array([0, 2, 4]))
        assert out.shape == (3, 48)

    def test_conditioning_changes_output(self):
        gen = Generator(num_classes=3, output_dim=10, z_dim=4, rng=default_rng(0))
        z = Tensor(np.zeros((1, 4), dtype=np.float32))
        a = gen(z, np.array([0])).numpy()
        b = gen(z, np.array([2])).numpy()
        assert not np.allclose(a, b)

    def test_trainable(self):
        gen = Generator(num_classes=2, output_dim=6, rng=default_rng(0))
        z = Tensor(np.ones((2, 16), dtype=np.float32))
        out = gen(z, np.array([0, 1]))
        out.sum().backward()
        assert all(p.grad is not None for p in gen.parameters())


class TestFedGenServer:
    def test_vision_mode_sample_shape(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("fedgen"))
        assert not sim.server._embedded_mode
        assert sim.server._sample_shape == (3, 8, 8)

    def test_embedded_mode_for_lstm(self):
        from repro.fl.config import FLConfig

        cfg = FLConfig(
            method="fedgen",
            dataset="synth_shakespeare",
            model="charlstm",
            num_clients=4,
            participation=0.5,
            rounds=2,
            local_epochs=1,
            batch_size=16,
            seed=0,
            dataset_params={"samples_per_client": 30, "num_test": 40},
            model_params={"hidden_size": 8, "embed_dim": 4},
        )
        sim = FLSimulation(cfg)
        assert sim.server._embedded_mode
        seq_len, embed_dim = sim.server._sample_shape
        assert embed_dim == 4
        result = sim.run()
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_generator_training_runs_and_reports_loss(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("fedgen", gen_steps=3))
        extras = sim.server.run_round(sim.server.select_cohort())
        assert "gen_loss" in extras
        assert np.isfinite(extras["gen_loss"])

    def test_label_counts_updated_from_clients(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("fedgen"))
        before = sim.server._label_counts.copy()
        sim.server.run_round(sim.server.select_cohort())
        assert not np.array_equal(before, sim.server._label_counts)

    def test_comm_includes_generator_downlink(self, tiny_config):
        fa = run_simulation(tiny_config.with_method("fedavg"))
        fg = run_simulation(tiny_config.with_method("fedgen", gen_steps=1))
        sim = FLSimulation(tiny_config.with_method("fedgen"))
        k = tiny_config.clients_per_round
        expected_extra = (
            tiny_config.rounds * k * sim.server.generator_size
        )
        assert (
            fg.history.total_comm_params() - fa.history.total_comm_params()
            == expected_extra
        )

    def test_learns(self, tiny_config):
        result = run_simulation(
            tiny_config.replace(rounds=6, local_epochs=3).with_method("fedgen", gen_steps=2)
        )
        assert result.best_accuracy > 0.15
