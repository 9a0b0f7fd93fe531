"""FLConfig validation and derived properties."""

import pytest

from repro.fl.config import FLConfig


class TestValidation:
    def test_defaults_valid(self):
        FLConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_clients": 0},
            {"participation": 0.0},
            {"participation": 1.5},
            {"rounds": 0},
            {"local_epochs": 0},
            {"k_active": 0},
            {"k_active": 100, "num_clients": 10},
            {"shards": 0},
            {"shard_placement": ""},
        ],
    )
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            FLConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"quorum": 0.0}, "quorum must be in (0, 1], got 0.0"),
            ({"quorum": 1.5}, "quorum must be in (0, 1], got 1.5"),
            (
                {"failure_policy": "retry"},
                "failure_policy must be 'fail', 'carry' or 'redispatch', got 'retry'",
            ),
            ({"leg_timeout": 0}, "leg_timeout must be None or positive seconds, got 0"),
            ({"leg_retries": -1}, "leg_retries must be >= 0, got -1"),
            ({"leg_backoff": -0.1}, "leg_backoff must be >= 0 seconds, got -0.1"),
        ],
    )
    def test_resilience_knobs_are_checked_by_their_knobs(self, kwargs, message):
        # Stated once, as each knob's check; the RoundPolicy they become
        # repeats none of them.
        with pytest.raises(ValueError) as err:
            FLConfig(**kwargs)
        assert str(err.value) == message


class TestDerived:
    def test_clients_per_round_from_participation(self):
        assert FLConfig(num_clients=100, participation=0.1).clients_per_round == 10

    def test_clients_per_round_minimum_one(self):
        assert FLConfig(num_clients=10, participation=0.01).clients_per_round == 1

    def test_k_active_overrides_participation(self):
        cfg = FLConfig(num_clients=100, participation=0.1, k_active=25)
        assert cfg.clients_per_round == 25

    def test_with_method_swaps_only_method(self):
        base = FLConfig(method="fedavg", seed=9, method_params={"x": 1})
        new = base.with_method("fedcross", alpha=0.9)
        assert new.method == "fedcross"
        assert new.method_params == {"alpha": 0.9}
        assert new.seed == 9
        assert base.method == "fedavg"  # frozen original untouched

    def test_replace(self):
        cfg = FLConfig(rounds=5).replace(rounds=9)
        assert cfg.rounds == 9

    def test_frozen(self):
        with pytest.raises(Exception):
            FLConfig().rounds = 3
