"""SCAFFOLD: control-variate mechanics and communication accounting."""

import numpy as np
import pytest

from repro.fl.simulation import FLSimulation, run_simulation


class TestScaffold:
    def test_control_variates_initialised_zero(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("scaffold"))
        assert all((v == 0).all() for v in sim.server._c_global.values())
        assert sim.server._c_clients == {}

    def test_variates_cover_params_not_buffers(self, tiny_config):
        sim = FLSimulation(tiny_config.replace(model="cnn_s").with_method("scaffold"))
        param_keys = {n for n, _ in sim.model.named_parameters()}
        assert set(sim.server._c_global) == param_keys

    def test_client_variates_created_after_participation(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("scaffold"))
        active = sim.server.select_cohort()
        sim.server.run_round(active)
        for client in active:
            assert client.client_id in sim.server._c_clients

    def test_global_variate_moves_after_round(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("scaffold"))
        sim.server.run_round(sim.server.select_cohort())
        total = sum(np.abs(v).sum() for v in sim.server._c_global.values())
        assert total > 0

    def test_variate_mean_zero_identity(self, tiny_config):
        """c_i+ = c_i - c + (x - y_i)/(steps*lr): check directly."""
        sim = FLSimulation(tiny_config.with_method("scaffold"))
        server = sim.server
        x = {k: v.copy() for k, v in server._global.items()}
        active = server.select_cohort()
        server.run_round(active)
        # For first-time participants c_i was 0 and c was 0, so
        # c_i+ = (x - y_i) / (steps * lr) must be nonzero after training.
        cid = active[0].client_id
        c_new = server._c_clients[cid]
        assert sum(np.abs(v).sum() for v in c_new.values()) > 0

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
