"""CluSamp: clustering, stratified sampling, FedAvg-compatible aggregation."""

import numpy as np
import pytest

from repro.fl.simulation import FLSimulation, run_simulation


class TestCluSamp:
    def test_cold_start_single_pool(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("clusamp"))
        groups = sim.server._cluster_assignments(tiny_config.clients_per_round)
        assert len(groups) == 1
        assert sorted(sum(groups, [])) == [c.client_id for c in sim.clients]

    def test_sampling_returns_k_distinct(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("clusamp"))
        chosen = sim.server.select_cohort()
        ids = [c.client_id for c in chosen]
        assert len(ids) == tiny_config.clients_per_round
        assert len(set(ids)) == len(ids)

    def test_updates_recorded_after_round(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("clusamp"))
        active = sim.server.select_cohort()
        sim.server.run_round(active)
        for client in active:
            assert client.client_id in sim.server._updates
            assert np.abs(sim.server._updates[client.client_id]).sum() > 0

    def test_clusters_form_with_history(self, tiny_config):
        cfg = tiny_config.replace(rounds=8, num_clients=8, participation=0.5)
        sim = FLSimulation(cfg.with_method("clusamp"))
        sim.server.fit()
        k = cfg.clients_per_round
        if len(sim.server._updates) >= 2 * k:
            groups = sim.server._cluster_assignments(k)
            assert len(groups) >= 2

    def test_comm_same_as_fedavg(self, tiny_config):
        fa = run_simulation(tiny_config.with_method("fedavg"))
        cs = run_simulation(tiny_config.with_method("clusamp"))
        assert cs.history.total_comm_params() == fa.history.total_comm_params()

    def test_learns(self, tiny_config):
        result = run_simulation(tiny_config.replace(rounds=6, local_epochs=3).with_method("clusamp"))
        assert result.best_accuracy > 0.15
