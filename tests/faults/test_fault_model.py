"""The seeded fault model: scenarios, determinism, cohort sampling."""

import json

import numpy as np
import pytest

from repro.faults import ClientPopulation, FaultScenario
from repro.faults.model import LegFault


class TestFaultScenario:
    def test_defaults_are_benign(self):
        scenario = FaultScenario()
        assert scenario.benign
        assert scenario.availability == 1.0
        assert scenario.dropout == 0.0

    def test_from_spec_mapping(self):
        s = FaultScenario.from_spec({"availability": 0.9, "dropout": 0.1})
        assert s.availability == 0.9
        assert s.dropout == 0.1
        assert not s.benign

    def test_from_spec_inline_json(self):
        s = FaultScenario.from_spec('{"slow_prob": 0.5, "slow_factor": 3.0}')
        assert s.slow_prob == 0.5
        assert s.slow_factor == 3.0

    def test_from_spec_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"dropout": 0.25}))
        assert FaultScenario.from_spec(str(path)).dropout == 0.25

    def test_from_spec_passthrough(self):
        s = FaultScenario(dropout=0.5)
        assert FaultScenario.from_spec(s) is s

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-scenario key 'droput'"):
            FaultScenario.from_spec({"droput": 0.1})

    def test_garbage_string_rejected(self):
        with pytest.raises(ValueError, match="neither an existing scenario"):
            FaultScenario.from_spec("no/such/file.json")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"availability": 1.5},
            {"dropout": -0.1},
            {"slow_prob": 2.0},
            {"slow_factor": 0.5},
            {"straggler_timeout": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultScenario(**kwargs)

    def test_to_dict_roundtrip(self):
        s = FaultScenario(availability=0.8, slow_prob=0.2, slow_factor=2.0)
        assert FaultScenario.from_spec(s.to_dict()) == s


class TestDeterminism:
    def test_availability_mask_is_pure(self):
        a = ClientPopulation({"availability": 0.7}, seed=3, num_clients=50)
        b = ClientPopulation({"availability": 0.7}, seed=3, num_clients=50)
        for r in (0, 1, 17):
            np.testing.assert_array_equal(
                a.availability_mask(r), b.availability_mask(r)
            )

    def test_seed_moves_the_pattern(self):
        a = ClientPopulation({"availability": 0.7}, seed=3, num_clients=200)
        b = ClientPopulation({"availability": 0.7}, seed=4, num_clients=200)
        assert not np.array_equal(a.availability_mask(0), b.availability_mask(0))

    def test_leg_fault_pure_per_client_round(self):
        a = ClientPopulation(
            {"dropout": 0.3, "slow_prob": 0.3, "slow_factor": 2.0},
            seed=9, num_clients=30,
        )
        b = ClientPopulation(
            {"dropout": 0.3, "slow_prob": 0.3, "slow_factor": 2.0},
            seed=9, num_clients=30,
        )
        for r in (0, 5):
            assert a.leg_faults(r, range(30)) == b.leg_faults(r, range(30))

    def test_full_availability_never_fails_anyone(self):
        pop = ClientPopulation({"availability": 1.0}, seed=0, num_clients=64)
        assert pop.availability_mask(0).all()
        assert all(f.kind is None for f in pop.leg_faults(0, range(64)))

    def test_dropout_one_drops_everyone(self):
        pop = ClientPopulation({"dropout": 1.0}, seed=0, num_clients=16)
        assert all(f.kind == "dropout" for f in pop.leg_faults(2, range(16)))

    def test_dropout_knob_does_not_move_straggler_stream(self):
        # Fixed draw order: the slow draw happens whether or not the
        # dropout draw already failed the leg.
        base = {"slow_prob": 0.4, "slow_factor": 3.0}
        a = ClientPopulation(base, seed=11, num_clients=100)
        b = ClientPopulation({**base, "dropout": 1.0}, seed=11, num_clients=100)
        for cid in range(100):
            assert a.leg_fault(0, cid).speed == b.leg_fault(0, cid).speed

    def test_straggler_cutoff(self):
        pop = ClientPopulation(
            {"slow_prob": 1.0, "slow_factor": 4.0, "straggler_timeout": 2.0},
            seed=0, num_clients=4,
        )
        faults = pop.leg_faults(0, range(4))
        assert all(f.kind == "straggler" and f.speed == 4.0 for f in faults)

    def test_kind_precedence_unavailable_wins(self):
        pop = ClientPopulation(
            {"availability": 0.0, "dropout": 1.0}, seed=0, num_clients=4
        )
        assert all(f.kind == "unavailable" for f in pop.leg_faults(0, range(4)))

    def test_failure_for_simulated_kinds(self):
        pop = ClientPopulation({"dropout": 1.0}, seed=0, num_clients=4)
        failure = pop.failure_for(LegFault(kind="dropout"), 1, 3, 2)
        assert failure.kind == "dropout"
        assert failure.simulated and not failure.retryable
        assert failure.summary() == {
            "client": 3, "row": 2, "kind": "dropout", "attempts": 0,
        }


class TestByzantineKnobs:
    def test_from_spec_accepts_byzantine_keys(self):
        s = FaultScenario.from_spec(
            {"byzantine_frac": 0.2, "attack": "gauss_noise", "attack_scale": 2.0}
        )
        assert s.byzantine_frac == 0.2
        assert s.attack == "gauss_noise"
        assert s.resolved_attack_scale == 2.0
        assert not s.benign

    def test_typoed_byzantine_key_lists_valid_knobs(self):
        with pytest.raises(ValueError, match="byzantine_frac"):
            FaultScenario.from_spec({"byzantine_fraction": 0.2})

    def test_committed_scenario_file_loads(self):
        from pathlib import Path

        path = Path(__file__).parent / "scenarios" / "byzantine_signflip.json"
        s = FaultScenario.from_spec(str(path))
        assert s.byzantine_frac == 0.2 and s.attack == "sign_flip"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"byzantine_frac": 1.5},
            {"byzantine_frac": -0.1},
            {"attack": "krum"},
            {"attack_scale": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultScenario(**kwargs)

    def test_unknown_attack_kind_lists_kinds(self):
        with pytest.raises(ValueError, match="sign_flip"):
            FaultScenario(attack="nope")

    def test_default_scales_resolve_per_kind(self):
        from repro.robust.attacks import DEFAULT_ATTACK_SCALES

        for kind, scale in DEFAULT_ATTACK_SCALES.items():
            s = FaultScenario(byzantine_frac=0.1, attack=kind)
            assert s.resolved_attack_scale == scale

    def test_to_dict_roundtrips_byzantine_knobs(self):
        s = FaultScenario(byzantine_frac=0.3, attack="scale", attack_scale=5.0)
        assert FaultScenario.from_spec(s.to_dict()) == s

    def test_mask_is_static_deterministic_and_seeded(self):
        spec = {"byzantine_frac": 0.25, "attack": "sign_flip"}
        a = ClientPopulation(spec, seed=3, num_clients=200)
        b = ClientPopulation(spec, seed=3, num_clients=200)
        c = ClientPopulation(spec, seed=4, num_clients=200)
        np.testing.assert_array_equal(a.byzantine_mask(), b.byzantine_mask())
        assert not np.array_equal(a.byzantine_mask(), c.byzantine_mask())
        # Static: the mask is one draw per run, identical across rounds
        # (attack_for below is the per-round view of it).
        assert a.byzantine_mask() is a.byzantine_mask()

    def test_mask_fraction_tracks_the_knob(self):
        pop = ClientPopulation(
            {"byzantine_frac": 0.25, "attack": "sign_flip"},
            seed=0, num_clients=2000,
        )
        assert 0.2 < pop.byzantine_mask().mean() < 0.3

    def test_attack_for_is_pure_and_honest_clients_get_none(self):
        spec = {"byzantine_frac": 0.25, "attack": "gauss_noise"}
        a = ClientPopulation(spec, seed=7, num_clients=20)
        b = ClientPopulation(spec, seed=7, num_clients=20)
        mask = a.byzantine_mask()
        assert 0 < mask.sum() < 20
        for cid in range(20):
            for r in (0, 3):
                spec_a, spec_b = a.attack_for(r, cid), b.attack_for(r, cid)
                assert spec_a == spec_b
                if mask[cid]:
                    assert spec_a.kind == "gauss_noise"
                    assert spec_a.scale == 1.0  # per-kind default
                else:
                    assert spec_a is None

    def test_seed_key_distinguishes_rounds_and_clients(self):
        pop = ClientPopulation(
            {"byzantine_frac": 1.0, "attack": "sign_flip"},
            seed=5, num_clients=4,
        )
        keys = {
            pop.attack_for(r, c).seed_key for r in range(3) for c in range(4)
        }
        assert len(keys) == 12

    def test_zero_fraction_never_attacks(self):
        pop = ClientPopulation(
            {"byzantine_frac": 0.0, "attack": "sign_flip"},
            seed=0, num_clients=8,
        )
        assert not pop.byzantine_mask().any()
        assert all(pop.attack_for(0, c) is None for c in range(8))
        assert pop.scenario.benign


class TestSelectCohort:
    def test_all_available_is_the_reference_draw(self):
        # Identity: a benign scenario consumes the server RNG exactly
        # like the reference `rng.choice(n, k, replace=False)`.
        clients = list(range(20))
        pop = ClientPopulation({"availability": 1.0}, seed=5, num_clients=20)
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        chosen = pop.select_cohort(clients, 6, 0, rng_a)
        reference = [clients[i] for i in rng_b.choice(20, size=6, replace=False)]
        assert chosen == reference
        # And the generators end in the same state.
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_churn_prefers_available_clients(self):
        pop = ClientPopulation({"availability": 0.5}, seed=1, num_clients=40)
        mask = pop.availability_mask(0)
        assert 0 < mask.sum() < 40  # the seed gives a genuine mix
        k = min(4, int(mask.sum()))
        chosen = pop.select_cohort(list(range(40)), k, 0, np.random.default_rng(0))
        assert all(mask[c] for c in chosen)

    def test_pads_with_unavailable_when_short(self):
        pop = ClientPopulation({"availability": 0.0}, seed=1, num_clients=8)
        chosen = pop.select_cohort(list(range(8)), 5, 0, np.random.default_rng(0))
        assert len(chosen) == 5
        assert len(set(chosen)) == 5  # no duplicates
        faults = pop.leg_faults(0, chosen)
        assert all(f.kind == "unavailable" for f in faults)

    def test_roster_size_mismatch_raises(self):
        pop = ClientPopulation({}, seed=0, num_clients=10)
        with pytest.raises(ValueError, match="sized for 10"):
            pop.select_cohort(list(range(8)), 2, 0, np.random.default_rng(0))


class TestBenignStragglerConsistency:
    """`benign` must agree with `leg_fault`'s straggler judgement
    (ISSUE 10 satellite): the reachable-speed regression, the
    `slow_factor == straggler_timeout` boundary, and the property that
    a benign scenario never faults or slows any sampled leg."""

    def test_timeout_below_baseline_not_benign_without_slowdown(self):
        # Regression: slow_prob=0 leaves every leg at the 1.0 baseline
        # speed, which a sub-unit straggler_timeout still strands — the
        # scenario straggles *every* leg and must not report benign.
        scenario = FaultScenario(straggler_timeout=0.5)
        assert not scenario.benign
        pop = ClientPopulation(scenario, seed=0, num_clients=8)
        faults = pop.leg_faults(0, range(8))
        assert all(f.kind == "straggler" and f.speed == 1.0 for f in faults)

    def test_boundary_equal_timeout_slowed_not_straggling(self):
        # slow_factor == straggler_timeout: leg_fault's strict `>`
        # never fires (no stragglers), but legs still run slowed — the
        # scenario is not benign for the slowdown, not the timeout.
        scenario = FaultScenario(
            slow_prob=1.0, slow_factor=2.0, straggler_timeout=2.0
        )
        assert not scenario.benign
        pop = ClientPopulation(scenario, seed=0, num_clients=8)
        faults = pop.leg_faults(0, range(8))
        assert all(f.kind is None and f.speed == 2.0 for f in faults)

    def test_unit_slow_factor_is_benign(self):
        # A slowdown that multiplies by 1.0 slows nothing, whatever
        # slow_prob says — and can never exceed a >= 1.0 timeout.
        assert FaultScenario(slow_prob=0.3, slow_factor=1.0).benign
        assert FaultScenario(
            slow_prob=0.3, slow_factor=1.0, straggler_timeout=1.0
        ).benign

    def test_timeout_at_baseline_is_benign(self):
        scenario = FaultScenario(straggler_timeout=1.0)
        assert scenario.benign
        pop = ClientPopulation(scenario, seed=0, num_clients=8)
        assert all(f.kind is None for f in pop.leg_faults(0, range(8)))

    @pytest.mark.parametrize(
        "spec",
        [
            {},
            {"slow_prob": 0.3, "slow_factor": 1.0},
            {"straggler_timeout": 4.0},
            {"availability": 1.0, "dropout": 0.0},
        ],
    )
    def test_benign_scenarios_never_fault_a_leg(self, spec):
        # Property: benign ⇒ every sampled leg is (kind=None, speed 1.0
        # or a sub-timeout slowdown) on every round.
        scenario = FaultScenario.from_spec(spec)
        assert scenario.benign
        pop = ClientPopulation(scenario, seed=3, num_clients=16)
        for t in range(5):
            for f in pop.leg_faults(t, range(16)):
                assert f.kind is None
        assert not pop.byzantine_mask().any()

    @pytest.mark.parametrize(
        "spec",
        [
            {"availability": 0.5},
            {"dropout": 0.5},
            {"slow_prob": 1.0, "slow_factor": 3.0},
            {"straggler_timeout": 0.5},
            {"byzantine_frac": 0.5},
        ],
    )
    def test_non_benign_scenarios_observably_misbehave(self, spec):
        # Converse property: not benign ⇒ a modest sample shows a
        # fault, a slowdown, or an adversarial client.
        scenario = FaultScenario.from_spec(spec)
        assert not scenario.benign
        pop = ClientPopulation(scenario, seed=3, num_clients=16)
        misbehaved = any(
            f.kind is not None or f.speed != 1.0
            for t in range(5)
            for f in pop.leg_faults(t, range(16))
        )
        assert misbehaved or pop.byzantine_mask().any()
