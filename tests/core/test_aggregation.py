"""CrossAggr and GlobalModelGen on state dicts (the oracle the pool
engine is held to), and the alpha check."""

import numpy as np
import pytest

from repro.core.fedcross import validate_alpha

from _dict_oracle import cross_aggregate, global_model_generation


class TestValidateAlpha:
    def test_accepts_open_interval(self):
        assert validate_alpha(0.5) == 0.5
        assert validate_alpha(0.999) == 0.999

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_outside(self, alpha):
        with pytest.raises(ValueError):
            validate_alpha(alpha)


class TestCrossAggregate:
    def test_formula(self):
        a = {"w": np.array([1.0, 0.0])}
        b = {"w": np.array([0.0, 1.0])}
        out = cross_aggregate(a, b, alpha=0.75)
        np.testing.assert_allclose(out["w"], [0.75, 0.25])

    def test_alpha_weighting_asymmetric(self):
        a = {"w": np.array([1.0])}
        b = {"w": np.array([0.0])}
        ab = cross_aggregate(a, b, 0.9)["w"][0]
        ba = cross_aggregate(b, a, 0.9)["w"][0]
        assert ab == pytest.approx(0.9)
        assert ba == pytest.approx(0.1)

    def test_preserves_dtype_and_shape(self):
        a = {"w": np.ones((2, 3), dtype=np.float32)}
        b = {"w": np.zeros((2, 3), dtype=np.float32)}
        out = cross_aggregate(a, b, 0.5)
        assert out["w"].dtype == np.float32
        assert out["w"].shape == (2, 3)

    def test_integer_buffers_carried_from_model(self):
        """Regression: averaging int buffers then truncating back
        silently corrupted step counters and the like."""
        a = {"w": np.array([1.0]), "steps": np.array([3], dtype=np.int64)}
        b = {"w": np.array([0.0]), "steps": np.array([100], dtype=np.int64)}
        out = cross_aggregate(a, b, alpha=0.5)
        np.testing.assert_array_equal(out["steps"], [3])
        assert out["steps"].dtype == np.int64

    def test_key_mismatch_raises(self):
        with pytest.raises(KeyError):
            cross_aggregate({"a": np.zeros(1)}, {"b": np.zeros(1)}, 0.5)

    def test_identical_models_fixed_point(self, rng):
        state = {"w": rng.standard_normal(5)}
        out = cross_aggregate(state, state, 0.7)
        np.testing.assert_allclose(out["w"], state["w"], rtol=1e-7)

    def test_does_not_mutate_inputs(self):
        a = {"w": np.array([1.0])}
        b = {"w": np.array([3.0])}
        cross_aggregate(a, b, 0.6)
        np.testing.assert_array_equal(a["w"], [1.0])
        np.testing.assert_array_equal(b["w"], [3.0])

    def test_multi_key_state(self, rng):
        a = {"w": rng.standard_normal(3), "b": rng.standard_normal(2)}
        b = {"w": rng.standard_normal(3), "b": rng.standard_normal(2)}
        out = cross_aggregate(a, b, 0.8)
        for k in a:
            np.testing.assert_allclose(out[k], 0.8 * a[k] + 0.2 * b[k], rtol=1e-7)


class TestGlobalModelGen:
    def test_uniform_average(self):
        pool = [{"w": np.array([0.0])}, {"w": np.array([1.0])}, {"w": np.array([2.0])}]
        out = global_model_generation(pool)
        np.testing.assert_allclose(out["w"], [1.0])

    def test_single_model_identity(self, rng):
        state = {"w": rng.standard_normal(4)}
        out = global_model_generation([state])
        np.testing.assert_allclose(out["w"], state["w"], rtol=1e-7)

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            global_model_generation([])

    def test_average_of_cross_aggregated_pool_preserved_in_order(self, rng):
        """In-order cross-aggregation preserves the pool mean (Eq. 2)."""
        from repro.core.selection import select_in_order

        k = 5
        pool = [{"w": rng.standard_normal(6)} for _ in range(k)]
        mean_before = np.mean([s["w"] for s in pool], axis=0)
        for r in range(3):
            new_pool = [
                cross_aggregate(pool[i], pool[select_in_order(i, r, k)], 0.7)
                for i in range(k)
            ]
            pool = new_pool
        mean_after = np.mean([s["w"] for s in pool], axis=0)
        np.testing.assert_allclose(mean_after, mean_before, rtol=1e-10)
