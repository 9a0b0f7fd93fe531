"""SCAFFOLD: control-variate mechanics and communication accounting."""

import numpy as np
import pytest

from repro.fl.simulation import FLSimulation, run_simulation


class TestScaffold:
    def test_control_variates_initialised_zero(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("scaffold"))
        assert sim.server._c_global.dtype == np.float32
        assert not sim.server._c_global.any()
        assert sim.server._c_clients == {}

    def test_variates_cover_params_not_buffers(self, tiny_config):
        sim = FLSimulation(
            tiny_config.replace(model="resnet8", model_params={"norm": "batch"})
            .with_method("scaffold")
        )
        server = sim.server
        param_keys = {n for n, _ in sim.model.named_parameters()}
        assert [key for key, _, _ in server._variate_fields] == sorted(param_keys)
        assert server._c_global.size == int(server._layout.mask(param_keys).sum())
        assert server._c_global.size < server._layout.total_size

    def test_variate_mean_blocks_rows_by_the_variate_size(self, tiny_config, monkeypatch):
        """The variate mean is sized by the parameter columns alone.

        On a model with buffers (BatchNorm) and a budget of two variate
        rows per block, the three deltas reduce as rows (0, 1) then (2,):
        the grouping a buffer over the whole model row would change.
        """
        sim = FLSimulation(
            tiny_config.replace(model="resnet8", model_params={"norm": "batch"})
            .with_method("scaffold")
        )
        server = sim.server
        p = server._c_global.size
        monkeypatch.setenv("REPRO_POOL_BLOCK_BYTES", str(2 * p * 8))
        active = server.select_cohort()
        assert len(active) == 3
        server.run_round(active)
        # First round: every c_i and c were zero, so each delta is c_i+.
        deltas = np.stack([server._c_clients[c.client_id] for c in active])
        w = np.full(3, 1.0 / 3)
        mean = w[0:2] @ deltas[0:2]
        mean += w[2:3] @ deltas[2:3]
        expected = np.zeros(p, dtype=np.float32) + (3 / 6) * mean
        np.testing.assert_array_equal(server._c_global, expected)

    def test_client_variates_created_after_participation(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("scaffold"))
        active = sim.server.select_cohort()
        sim.server.run_round(active)
        for client in active:
            assert client.client_id in sim.server._c_clients

    def test_global_variate_moves_after_round(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("scaffold"))
        sim.server.run_round(sim.server.select_cohort())
        assert np.abs(sim.server._c_global).sum() > 0
        # Widened by the float64 refresh (the round-0 correction is float32).
        assert sim.server._c_global.dtype == np.float64

    def test_variate_mean_zero_identity(self, tiny_config):
        """c_i+ = c_i - c + (x - y_i)/(steps*lr): check directly."""
        sim = FLSimulation(tiny_config.with_method("scaffold"))
        server = sim.server
        active = server.select_cohort()
        server.run_round(active)
        # For first-time participants c_i was 0 and c was 0, so
        # c_i+ = (x - y_i) / (steps * lr) must be nonzero after training.
        cid = active[0].client_id
        c_new = server._c_clients[cid]
        assert np.abs(c_new).sum() > 0

    def test_communication_doubled_vs_fedavg(self, tiny_config):
        fa = run_simulation(tiny_config.with_method("fedavg"))
        sc = run_simulation(tiny_config.with_method("scaffold"))
        assert sc.history.total_comm_params() == 2 * fa.history.total_comm_params()

    def test_learns(self, tiny_config):
        result = run_simulation(
            tiny_config.replace(rounds=6, local_epochs=3).with_method("scaffold")
        )
        assert result.best_accuracy > 0.15

    def test_server_lr_configurable(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("scaffold", server_lr=0.5))
        assert sim.server.server_lr == 0.5
