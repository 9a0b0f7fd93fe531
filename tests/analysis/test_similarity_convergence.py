"""Similarity diagnostics and convergence probes."""

import numpy as np
import pytest

from repro.analysis.convergence import (
    empirical_convergence_rate,
    inverse_t_envelope_fit,
    lemma34_contraction_gap,
)
from repro.analysis.similarity import (
    mean_pairwise_similarity,
    pairwise_cosine,
    pool_dispersion,
)
from repro.core.pool import PoolBuffer


def pool_of(vectors):
    return [{"w": np.asarray(v, dtype=np.float64)} for v in vectors]


class TestSimilarityDiagnostics:
    def test_identical_pool(self):
        pool = pool_of([[1.0, 2.0]] * 3)
        assert mean_pairwise_similarity(pool) == pytest.approx(1.0)
        assert pool_dispersion(pool) == pytest.approx(0.0)

    def test_single_member_pool(self):
        assert mean_pairwise_similarity(pool_of([[1.0]])) == 1.0

    def test_dispersion_grows_with_spread(self, rng):
        base = rng.standard_normal(8)
        tight = pool_of([base + 0.01 * rng.standard_normal(8) for _ in range(4)])
        loose = pool_of([base + 1.0 * rng.standard_normal(8) for _ in range(4)])
        assert pool_dispersion(tight) < pool_dispersion(loose)

    def test_cross_aggregation_raises_similarity(self, rng):
        from repro.core.selection import select_in_order

        pool = PoolBuffer.from_states(pool_of(rng.standard_normal((5, 12))), dtype=np.float64)
        before = mean_pairwise_similarity(pool)
        for r in range(6):
            pool = pool.cross_aggregate([select_in_order(i, r, 5) for i in range(5)], 0.7)
        after = mean_pairwise_similarity(pool)
        assert after > before

    def test_pairwise_matrix_shape(self, rng):
        sim = pairwise_cosine(pool_of(rng.standard_normal((3, 4))))
        assert sim.shape == (3, 3)


class TestEnvelopeFit:
    def test_recovers_exact_inverse_t(self):
        t = np.arange(1, 60)
        losses = 5.0 / (t + 3.0) + 0.2
        fit = inverse_t_envelope_fit(losses, f_star=0.2)
        assert fit["c"] == pytest.approx(5.0, rel=0.05)
        assert fit["lam"] == pytest.approx(3.0, rel=0.2)
        assert fit["r2"] > 0.999

    def test_slope_of_inverse_t_is_minus_one(self):
        t = np.arange(1, 100)
        losses = 2.0 / t
        assert empirical_convergence_rate(losses) == pytest.approx(-1.0, abs=0.01)

    def test_constant_curve_slope_zero(self):
        losses = np.full(50, 1.0)
        assert abs(empirical_convergence_rate(losses)) < 0.01

    def test_rejects_losses_below_fstar(self):
        with pytest.raises(ValueError):
            inverse_t_envelope_fit([1.0, 0.5], f_star=0.7)


class TestLemma34:
    def test_gap_nonnegative_for_inorder_permutation(self, rng):
        from repro.core.selection import select_in_order

        pool = PoolBuffer.from_states(pool_of(rng.standard_normal((6, 10))), dtype=np.float64)
        reference = rng.standard_normal(10)
        for r in range(5):
            co = [select_in_order(i, r, 6) for i in range(6)]
            gap = lemma34_contraction_gap(pool, co, alpha=0.8, reference=reference)
            assert gap >= -1e-10

    def test_gap_refuses_alpha_outside_unit_interval(self):
        pool = PoolBuffer.from_states(pool_of([[0.0], [1.0]]), dtype=np.float64)
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                lemma34_contraction_gap(pool, [1, 0], alpha, np.zeros(1))

    def test_gap_zero_for_identical_pool(self, rng):
        pool = PoolBuffer.from_states(pool_of([np.ones(4)] * 3), dtype=np.float64)
        co = [1, 2, 0]
        gap = lemma34_contraction_gap(pool, co, 0.7, np.zeros(4))
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_gap_can_fail_for_non_permutation(self):
        """All models aggregating toward the farthest member can move the
        pool *away* from a reference near the former consensus."""
        pool = PoolBuffer.from_states(pool_of([[0.0], [0.0], [10.0]]), dtype=np.float64)
        co = [2, 2, 2]  # not a permutation
        gap = lemma34_contraction_gap(pool, co, 0.5, np.array([0.0]))
        assert gap < 0
