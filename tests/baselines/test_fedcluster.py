"""FedCluster extension baseline."""

import numpy as np
import pytest

from _fits import assert_same_fit, run_fit
from repro.fl.simulation import FLSimulation, run_simulation


class TestFedCluster:
    def test_registered(self):
        from repro.fl.registry import available_methods

        assert "fedcluster" in available_methods()

    def test_clusters_partition_population(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("fedcluster", num_clusters=3))
        ids = sorted(sum(sim.server._clusters, []))
        assert ids == list(range(tiny_config.num_clients))
        assert len(sim.server._clusters) == 3

    def test_single_cluster_reduces_to_fedavg_style(self, tiny_config):
        result = run_simulation(
            tiny_config.with_method("fedcluster", num_clusters=1)
        )
        assert len(result.history) == tiny_config.rounds

    def test_invalid_cluster_count(self, tiny_config):
        with pytest.raises(ValueError):
            FLSimulation(tiny_config.with_method("fedcluster", num_clusters=0))

    def test_cyclic_visit_order_rotates(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("fedcluster", num_clusters=2))
        # round_idx changes the starting cluster
        assert sim.server.round_idx % 2 == 0
        sim.server.run_round(sim.server.select_cohort())
        # no assertion on internals beyond it running; rotation covered
        # by the deterministic schedule formula
        sim.server.round_idx += 1
        sim.server.run_round(sim.server.select_cohort())

    def test_learns(self, tiny_config):
        result = run_simulation(
            tiny_config.replace(rounds=6, local_epochs=3).with_method(
                "fedcluster", num_clusters=2
            )
        )
        assert result.best_accuracy > 0.15

    def test_communication_recorded(self, tiny_config):
        result = run_simulation(tiny_config.with_method("fedcluster", num_clusters=2))
        assert result.history.total_comm_params() > 0

    def test_visits_average_through_the_configured_aggregator(self, tiny_config):
        # Full participation puts three members in each visit (a trimmed
        # mean of one row is that row).  The visit average used to be
        # ``mean_state`` whatever --aggregator said.
        base = tiny_config.with_method("fedcluster").replace(participation=1.0)
        rows = {
            name: run_simulation(base.replace(aggregator=name)).final_state
            for name in ("mean", "trimmed_mean")
        }
        assert any(
            not np.array_equal(rows["mean"][key], value)
            for key, value in rows["trimmed_mean"].items()
        )

    def test_engaged_fault_policy_is_rejected_not_ignored(self, tiny_config):
        # FedCluster overrides run_round() and trains through
        # train_cohort(), so the round policy (which acts inside
        # collect()) used to be silently ignored: every leg trained and
        # no leg_failures were reported under dropout=0.5.  The config
        # refuses the product at construction.
        base = tiny_config.with_method("fedcluster", num_clusters=2)
        with pytest.raises(ValueError) as err:
            base.replace(faults={"dropout": 0.5}, failure_policy="carry", quorum=0.25)
        message = str(err.value)
        assert "method='fedcluster'" in message and "run_round" in message
        assert "faults=" in message and "failure_policy='carry'" in message
        with pytest.raises(ValueError, match="leg_retries=2"):
            base.replace(leg_retries=2)

    def test_default_config_is_untouched_by_the_policy_check(self, tiny_config):
        # quorum / leg_backoff alone engage nothing.
        base = tiny_config.with_method("fedcluster", num_clusters=2)
        assert_same_fit(run_fit(base), run_fit(base, quorum=0.5, leg_backoff=1.0))
