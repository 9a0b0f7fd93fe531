"""Hypothesis property tests for the FedCross core invariants."""

import os
import sys

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.convergence import lemma34_contraction_gap
from repro.core.acceleration import DynamicAlphaSchedule, propeller_indices
from repro.core.pool import PoolBuffer
from repro.core.selection import select_in_order

# The state-dict aggregation paths, the oracle the row engine is held to.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "core"))
from _dict_oracle import cross_aggregate, global_model_generation  # noqa: E402

finite = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False, width=64
)
alphas = st.floats(min_value=0.01, max_value=0.99)


def pools(min_k=2, max_k=6, dim=5):
    @st.composite
    def build(draw):
        k = draw(st.integers(min_k, max_k))
        return [
            {"w": draw(hnp.arrays(np.float64, (dim,), elements=finite))}
            for _ in range(k)
        ]

    return build()


class TestInOrderPermutation:
    @given(k=st.integers(2, 12), r=st.integers(0, 50))
    @settings(max_examples=100, deadline=None)
    def test_always_a_derangement(self, k, r):
        """Every round's assignment is a permutation with no fixed point."""
        chosen = [select_in_order(i, r, k) for i in range(k)]
        assert sorted(chosen) == list(range(k))
        assert all(chosen[i] != i for i in range(k))


class TestCrossAggregationProperties:
    @given(pool=pools(), alpha=alphas, r=st.integers(0, 20))
    @settings(max_examples=50, deadline=None)
    def test_in_order_preserves_pool_mean(self, pool, alpha, r):
        """Eq. 2: sum of cross-aggregated models equals sum of uploads."""
        k = len(pool)
        new_pool = [
            cross_aggregate(pool[i], pool[select_in_order(i, r, k)], alpha)
            for i in range(k)
        ]
        before = np.mean([s["w"] for s in pool], axis=0)
        after = np.mean([s["w"] for s in new_pool], axis=0)
        np.testing.assert_allclose(after, before, rtol=1e-7, atol=1e-7)

    @given(pool=pools(), alpha=alphas, r=st.integers(0, 20))
    @settings(max_examples=50, deadline=None)
    def test_lemma34_contraction_under_permutation(self, pool, alpha, r):
        """||w - w*||^2 never grows under permutation cross-aggregation,
        for any reference point."""
        k = len(pool)
        co = [select_in_order(i, r, k) for i in range(k)]
        rows = PoolBuffer.from_states(pool, dtype=np.float64)
        gap = lemma34_contraction_gap(rows, co, alpha, np.zeros(5))
        assert gap >= -1e-6 * max(1.0, abs(gap))

    @given(pool=pools(), alpha=alphas)
    @settings(max_examples=50, deadline=None)
    def test_convex_combination_bounds(self, pool, alpha):
        """Each aggregated weight lies between its two parents."""
        out = cross_aggregate(pool[0], pool[1], alpha)
        lo = np.minimum(pool[0]["w"], pool[1]["w"]) - 1e-9
        hi = np.maximum(pool[0]["w"], pool[1]["w"]) + 1e-9
        assert (out["w"] >= lo).all() and (out["w"] <= hi).all()

    @given(pool=pools())
    @settings(max_examples=30, deadline=None)
    def test_global_model_within_pool_hull(self, pool):
        out = global_model_generation(pool)
        stacked = np.stack([s["w"] for s in pool])
        assert (out["w"] >= stacked.min(axis=0) - 1e-9).all()
        assert (out["w"] <= stacked.max(axis=0) + 1e-9).all()


class TestPropellerProperties:
    @given(
        k=st.integers(2, 10),
        r=st.integers(0, 30),
        i=st.integers(0, 9),
        num=st.integers(1, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_distinct_valid_never_self(self, k, r, i, num):
        i = i % k
        out = propeller_indices(i, r, k, num)
        assert len(out) == min(max(num, 1), k - 1) if k > 1 else 1
        assert len(set(out)) == len(out)
        if k > 1:
            assert i not in out
        assert all(0 <= j < k for j in out)


class TestDynamicAlphaProperties:
    @given(
        target=st.floats(0.51, 0.99),
        ramp=st.integers(1, 50),
        r1=st.integers(0, 60),
        r2=st.integers(0, 60),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_bounded(self, target, ramp, r1, r2):
        sched = DynamicAlphaSchedule(target=target, ramp_rounds=ramp)
        a1, a2 = sched.alpha_at(r1), sched.alpha_at(r2)
        assert 0.5 - 1e-9 <= a1 <= target + 1e-9
        if r1 <= r2:
            assert a1 <= a2 + 1e-12
