"""Seeded upload attacks: specs, transforms, determinism."""

import numpy as np
import pytest

from repro.fl.execution import SerialExecution
from repro.fl.simulation import FLSimulation
from repro.robust.attacks import (
    ATTACK_KINDS,
    DEFAULT_ATTACK_SCALES,
    AttackSpec,
    attacked_row,
)
from repro.utils.layout import StateLayout


def head_state(rng):
    """A model-shaped state with an unambiguous classifier head."""
    return {
        "hidden.weight": rng.standard_normal((4, 3)).astype(np.float32),
        "hidden.bias": rng.standard_normal(4).astype(np.float32),
        "out.weight": rng.standard_normal((3, 4)).astype(np.float32),
        "out.bias": rng.standard_normal(3).astype(np.float32),
        "steps": np.array([11], dtype=np.int64),
    }


def spec(kind, scale=None, seed_key=(1, 2, 3, 4)):
    return AttackSpec(
        kind=kind,
        scale=DEFAULT_ATTACK_SCALES[kind] if scale is None else scale,
        seed_key=seed_key,
    )


class TestAttackSpec:
    def test_unknown_kind_lists_valid_kinds(self):
        with pytest.raises(ValueError, match="sign_flip"):
            AttackSpec(kind="krum", scale=1.0, seed_key=(0,))

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            AttackSpec(kind="sign_flip", scale=0.0, seed_key=(0,))

    def test_wire_roundtrip(self):
        original = spec("gauss_noise", scale=2.5)
        wire = original.to_wire()
        assert wire == {
            "kind": "gauss_noise", "scale": 2.5, "seed_key": [1, 2, 3, 4],
        }
        assert AttackSpec.from_wire(wire) == original

    def test_every_kind_has_a_default_scale(self):
        assert set(DEFAULT_ATTACK_SCALES) == set(ATTACK_KINDS)
        assert all(s > 0 for s in DEFAULT_ATTACK_SCALES.values())


class TestAttackedRow:
    def _rows(self, rng):
        layout = StateLayout.from_state(head_state(rng))
        dispatched = layout.flatten(head_state(rng), dtype=np.float32)
        trained = layout.flatten(head_state(rng), dtype=np.float32)
        return layout, dispatched, trained

    def test_sign_flip_formula(self, rng):
        layout, d, t = self._rows(rng)
        out = attacked_row(spec("sign_flip", scale=4.0), layout, d, t)
        expected = (
            d.astype(np.float64) - 4.0 * (t.astype(np.float64) - d)
        ).astype(np.float32)
        cols = ~layout.integer_mask()
        np.testing.assert_array_equal(out[cols], expected[cols])

    def test_scale_formula(self, rng):
        layout, d, t = self._rows(rng)
        out = attacked_row(spec("scale", scale=10.0), layout, d, t)
        expected = (
            d.astype(np.float64) + 10.0 * (t.astype(np.float64) - d)
        ).astype(np.float32)
        cols = ~layout.integer_mask()
        np.testing.assert_array_equal(out[cols], expected[cols])

    def test_gauss_noise_is_a_pure_function_of_the_seed_key(self, rng):
        layout, d, t = self._rows(rng)
        a = attacked_row(spec("gauss_noise"), layout, d, t)
        b = attacked_row(spec("gauss_noise"), layout, d, t)
        np.testing.assert_array_equal(a, b)
        other = attacked_row(
            spec("gauss_noise", seed_key=(9, 9, 9, 9)), layout, d, t
        )
        assert not np.array_equal(a, other)

    def test_gauss_noise_matches_seeded_generator(self, rng):
        layout, d, t = self._rows(rng)
        out = attacked_row(spec("gauss_noise", scale=1.5), layout, d, t)
        noise = np.random.default_rng([1, 2, 3, 4]).standard_normal(t.shape[0])
        expected = (t.astype(np.float64) + 1.5 * noise).astype(np.float32)
        cols = ~layout.integer_mask()
        np.testing.assert_array_equal(out[cols], expected[cols])

    def test_label_flip_reverses_the_classifier_head(self, rng):
        layout, d, t = self._rows(rng)
        out = attacked_row(spec("label_flip"), layout, d, t)
        state = layout.unflatten(out)
        trained = layout.unflatten(t)
        np.testing.assert_array_equal(
            state["out.weight"], trained["out.weight"][::-1]
        )
        np.testing.assert_array_equal(
            state["out.bias"], trained["out.bias"][::-1]
        )
        # Hidden layers are the honest trained values, untouched.
        np.testing.assert_array_equal(
            state["hidden.weight"], trained["hidden.weight"]
        )
        np.testing.assert_array_equal(
            state["hidden.bias"], trained["hidden.bias"]
        )

    def test_label_flip_requires_a_head(self, rng):
        state = {"only.bias": rng.standard_normal(3).astype(np.float32)}
        layout = StateLayout.from_state(state)
        row = layout.flatten(state, dtype=np.float32)
        with pytest.raises(ValueError, match="classifier head"):
            attacked_row(spec("label_flip"), layout, row, row)

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_integer_columns_restored_from_trained(self, rng, kind):
        layout, d, t = self._rows(rng)
        int_mask = layout.integer_mask()
        t[int_mask] = 23.0
        d[int_mask] = 7.0
        out = attacked_row(spec(kind), layout, d, t)
        np.testing.assert_array_equal(out[int_mask], t[int_mask])

    def test_inputs_never_mutated(self, rng):
        layout, d, t = self._rows(rng)
        d0, t0 = d.copy(), t.copy()
        for kind in ATTACK_KINDS:
            attacked_row(spec(kind), layout, d, t)
        np.testing.assert_array_equal(d, d0)
        np.testing.assert_array_equal(t, t0)


class TestAttackedLeg:
    """The upload boundary: a leg's attack poisons the row it lands in."""

    @staticmethod
    def _three_legs(tiny_config, attacks):
        sim = FLSimulation(tiny_config)
        server = sim.server
        active = server.select_cohort()
        plans = server.dispatch(active)
        uploads = server._round_uploads(len(active))
        group = SerialExecution().submit_group(
            server.trainer, active, plans, [0, 1, 2], uploads, attacks=attacks
        )
        return plans, uploads, [future.result() for future in group.futures]

    def test_poisons_exactly_the_target_row(self, tiny_config):
        attack = spec("sign_flip")
        _, honest, _ = self._three_legs(tiny_config, None)
        plans, uploads, results = self._three_legs(tiny_config, {1: attack})
        before = honest.storage.row_block(0, 3)
        after = uploads.storage.row_block(0, 3)
        layout = uploads.layout
        expected = attacked_row(attack, layout, plans[1].flat, before[1])
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[2], before[2])
        np.testing.assert_array_equal(after[1], expected)
        assert not np.array_equal(after[1], before[1])
        # The result's state is the upload, never the honest trained state.
        np.testing.assert_array_equal(
            layout.flatten(results[1].state, dtype=np.float32), expected
        )
