"""Hypothesis equivalence tests: PoolBuffer engine vs dict references.

The vectorized engine must reproduce the original per-pair dict loops —
similarity values (a :class:`~repro.core.gram.GramTracker`'s cosine, the
blocked euclidean matrix), selected collaborator indices, and
aggregated states — across all three ``CoModelSel`` strategies, both
similarity measures, and with/without ``param_keys`` masks.
"""

import os
import sys

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.gram import GramTracker
from repro.core.pool import PoolBuffer
from repro.core.selection import CoModelSel, select_in_order

# The per-pair similarity loops and the state-dict aggregation paths,
# the oracles of the engine.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "core"))
from _dict_oracle import (  # noqa: E402
    cross_aggregate,
    global_model_generation,
    weighted_average,
)
from _selection_oracle import (  # noqa: E402
    reference_select_by_similarity,
    reference_similarity_matrix,
)

finite = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False, width=32
)
alphas = st.floats(min_value=0.01, max_value=0.99)
measures = st.sampled_from(["cosine", "euclidean"])
masks = st.sampled_from([None, {"w"}, {"w", "buf"}])

KEYS = {"w": (5,), "buf": (2,)}


def pools(min_k=2, max_k=6):
    @st.composite
    def build(draw):
        k = draw(st.integers(min_k, max_k))
        return [
            {
                key: draw(hnp.arrays(np.float64, shape, elements=finite))
                for key, shape in KEYS.items()
            }
            for _ in range(k)
        ]

    return build()


class TestSimilarityEquivalence:
    @given(pool=pools(), measure=measures, keys=masks)
    @settings(max_examples=60, deadline=None)
    def test_matrix_matches_reference(self, pool, measure, keys):
        ref = reference_similarity_matrix(pool, measure, keys)
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        if measure == "cosine":
            got = GramTracker.from_pool(buf, keys).similarity()
        else:
            got = buf.euclidean_matrix(keys)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)


class TestSelectionEquivalence:
    @given(
        pool=pools(),
        measure=measures,
        keys=masks,
        want_highest=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_similarity_selection_matches_reference(
        self, pool, measure, keys, want_highest
    ):
        strategy = "highest" if want_highest else "lowest"
        sel = CoModelSel(strategy, measure=measure, param_keys=keys)
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        vectorized = sel.select_all(buf, round_idx=0)
        # The engine and the per-pair reference may round differently at
        # the last ulp (e.g. cosine of exactly parallel vectors at
        # different scales: normalized Gram rows tie bitwise, the
        # pairwise dot/(nx*ny) does not), which flips argmin/argmax
        # tie-breaks. Selected *indices* may then differ legitimately —
        # what must match is the achieved reference similarity value.
        ref_sim = reference_similarity_matrix(pool, measure, keys)
        for i in range(len(pool)):
            ref = reference_select_by_similarity(
                i, pool, measure, keys, want_highest=want_highest
            )
            picked = int(vectorized[i])
            assert picked != i
            np.testing.assert_allclose(
                ref_sim[i, picked], ref_sim[i, ref], rtol=1e-9, atol=1e-9
            )

    @given(pool=pools(), r=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_in_order_selection_matches_reference(self, pool, r):
        sel = CoModelSel("in_order")
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        vectorized = sel.select_all(buf, round_idx=r)
        for i in range(len(pool)):
            assert vectorized[i] == select_in_order(i, r, len(pool))


class TestAggregationEquivalence:
    @given(pool=pools(), alpha=alphas, r=st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_cross_aggregate_bitwise_matches_dict(self, pool, alpha, r):
        k = len(pool)
        co = np.array([(i + (r % (k - 1) + 1)) % k for i in range(k)])
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        out = buf.cross_aggregate(co, alpha)
        for i in range(k):
            ref = cross_aggregate(pool[i], pool[co[i]], alpha)
            got = out.as_state(i)
            for key in ref:
                np.testing.assert_array_equal(got[key], ref[key])

    @given(pool=pools(), alpha=alphas)
    @settings(max_examples=40, deadline=None)
    def test_propeller_fusion_bitwise_matches_dict(self, pool, alpha):
        k = len(pool)
        groups = np.array([[(i + 1) % k, (i + 2) % k] for i in range(k)])
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        out = buf.cross_aggregate(groups, alpha)
        for i in range(k):
            collab = weighted_average([pool[j] for j in groups[i]])
            ref = cross_aggregate(pool[i], collab, alpha)
            got = out.as_state(i)
            for key in ref:
                np.testing.assert_array_equal(got[key], ref[key])

    @given(pool=pools())
    @settings(max_examples=40, deadline=None)
    def test_global_model_generation_bitwise_matches_dict(self, pool):
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        ref = global_model_generation(pool)
        got = buf.layout.unflatten(buf.mean_state())
        for key in ref:
            np.testing.assert_array_equal(got[key], ref[key])

    @given(pool=pools())
    @settings(max_examples=30, deadline=None)
    def test_float32_pool_stays_within_roundtrip(self, pool):
        """A float32 buffer (the server's storage) reproduces the dict
        result up to one float32 rounding of the inputs."""
        pool32 = [
            {k: v.astype(np.float32) for k, v in state.items()} for state in pool
        ]
        buf = PoolBuffer.from_states(pool32, dtype=np.float32)
        ref = global_model_generation(pool32)
        got = buf.layout.unflatten(buf.mean_state())
        for key in ref:
            np.testing.assert_allclose(got[key], ref[key], rtol=1e-6, atol=1e-6)


class TestBlockwiseEquivalence:
    """Row-blocked operations are bit-identical for every block size."""

    @given(pool=pools(), alpha=alphas, block=st.integers(1, 8), r=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_cross_aggregate_blocked_bitwise_matches_dict(self, pool, alpha, block, r):
        k = len(pool)
        co = np.array([(i + (r % (k - 1) + 1)) % k for i in range(k)])
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        out = buf.cross_aggregate(co, alpha, block_rows=block)
        for i in range(k):
            ref = cross_aggregate(pool[i], pool[co[i]], alpha)
            got = out.as_state(i)
            for key in ref:
                np.testing.assert_array_equal(got[key], ref[key])

    @given(pool=pools(), keys=masks, block=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_dispersion_blocked_matches_unblocked(self, pool, keys, block):
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        got = buf.dispersion(param_keys=keys, block_rows=block)
        ref = buf.dispersion(param_keys=keys)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    @given(pool=pools(), keys=masks, block=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_euclidean_blocked_matches_reference(self, pool, keys, block):
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        got = buf.euclidean_matrix(param_keys=keys, block_rows=block)
        ref = reference_similarity_matrix(pool, "euclidean", keys)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)
        # Across block sizes the P-axis reduction may legitimately move
        # by the last ulp (SIMD summation order varies with operand
        # shape/alignment), so agreement is asserted ulp-tight, not
        # bitwise — unlike cross_aggregate's elementwise guarantee.
        unblocked = buf.euclidean_matrix(param_keys=keys)
        np.testing.assert_allclose(got, unblocked, rtol=1e-13, atol=0)
        # Same block size must be exactly reproducible.
        again = buf.euclidean_matrix(param_keys=keys, block_rows=block)
        np.testing.assert_array_equal(got, again)
