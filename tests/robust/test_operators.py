"""Aggregation operators: registry, combines, trust-region blends."""

import numpy as np
import pytest

from repro.core.pool import PoolBuffer
from repro.robust import operators
from repro.robust.operators import (
    CoordinateMedianOperator,
    MeanOperator,
    NormClipOperator,
    TrimmedMeanOperator,
    _deviation_norms,
    _median,
    available_operators,
    build_operator,
    resolve_operator,
)
from repro.utils.layout import StateLayout


def make_state(rng, with_int=False):
    state = {
        "b.weight": rng.standard_normal((3, 2)).astype(np.float32),
        "a.bias": rng.standard_normal(4).astype(np.float32),
        "c.scale": rng.standard_normal(()).astype(np.float32),
    }
    if with_int:
        state["c.steps"] = np.array([7], dtype=np.int64)
    return state


def make_pool(rng, k=4, with_int=False):
    return [make_state(rng, with_int=with_int) for _ in range(k)]


def crafted_buf(rng, k=6, outliers=(), magnitude=60.0, with_int=False,
                backend="dense"):
    """A tight honest cluster with optional far-out poisoned rows.

    Row ``i`` is the base state shifted by ``0.01 * (i + 1)`` (plus
    ``magnitude`` for outlier rows), so honest deviation norms sit well
    inside the trust region while outliers are unambiguously beyond it.
    """
    base = make_state(rng, with_int=with_int)
    states = []
    for i in range(k):
        shift = np.float32(0.01 * (i + 1) + (magnitude if i in outliers else 0.0))
        state = {
            key: val if val.dtype == np.int64 else val + shift
            for key, val in base.items()
        }
        if with_int:
            state["c.steps"] = np.array([i + 1], dtype=np.int64)
        states.append(state)
    return PoolBuffer.from_states(states, dtype=np.float32, backend=backend)


def rows64(buf):
    return buf.storage.row_block(0, len(buf)).astype(np.float64)


def reduce_for(op, vals):
    """The operator's column statistic, recomputed with plain numpy."""
    if isinstance(op, TrimmedMeanOperator):
        k = vals.shape[0]
        lo = min(int(op.trim * k), (k - 1) // 2)
        return np.sort(vals, axis=0)[lo : k - lo].mean(axis=0)
    return np.median(vals, axis=0)


def trust_region_for(op, buf):
    """``(center, flagged)`` recomputed from first principles."""
    vals = rows64(buf)
    center = reduce_for(op, vals)
    int_mask = buf.layout.integer_mask()
    cols = ~int_mask if int_mask.any() else slice(None)
    diff = vals[:, cols] - center[cols]
    norms = np.sqrt((diff * diff).sum(axis=1))
    med = np.median(norms)
    mad = np.median(np.abs(norms - med))
    tau = max(med + op.clip_factor * mad, 2.0 * med)
    return center, norms > tau


class TestScalarMedian:
    """``_median`` is ``np.median``'s bits (the MAD thresholds ride on it)."""

    @staticmethod
    def same_bits(values):
        x = np.asarray(values, dtype=np.float64)
        with np.errstate(invalid="ignore"):  # inf - inf midpoints
            return np.float64(_median(x)).tobytes() == np.float64(np.median(x)).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 49, 50])
    def test_odd_and_even_lengths(self, rng, k):
        for _ in range(20):
            assert self.same_bits(rng.standard_normal(k) * 10.0 ** rng.integers(-8, 8))

    def test_ties_and_signed_zeros(self, rng):
        menu = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, np.inf, -np.inf])
        for _ in range(400):
            assert self.same_bits(rng.choice(menu, size=rng.integers(1, 12)))
        # np.mean starts its sum at +0.0, so np.median never returns -0.0
        assert self.same_bits([-0.0]) and self.same_bits([-1.0, -0.0, -0.0, 2.0])

    def test_any_nan_makes_the_median_nan(self, rng):
        for k in (1, 2, 5, 8):
            x = rng.standard_normal(k)
            x[rng.integers(k)] = np.nan
            assert np.isnan(_median(x)) and self.same_bits(x)

    def test_input_not_sorted_in_place(self):
        x = np.array([3.0, 1.0, 2.0])
        assert _median(x) == 2.0
        np.testing.assert_array_equal(x, [3.0, 1.0, 2.0])


class TestRegistry:
    def test_builtin_operators_registered(self):
        assert available_operators() == [
            "coordinate_median", "mean", "norm_clip", "trimmed_mean",
        ]

    def test_resolve_unknown_lists_options(self):
        with pytest.raises(ValueError, match="trimmed_mean"):
            resolve_operator("krum")

    def test_build_operator_applies_params(self):
        op = build_operator("trimmed_mean", {"trim": 0.1, "clip_factor": 5.0})
        assert op.trim == 0.1 and op.clip_factor == 5.0

    def test_unknown_param_rejected_listing_valid(self):
        with pytest.raises(ValueError, match=r"bogus.*clip_factor"):
            build_operator("coordinate_median", {"bogus": 1})

    def test_trim_range_validated(self):
        with pytest.raises(ValueError, match="trim"):
            build_operator("trimmed_mean", {"trim": 0.5})

    def test_clip_factor_validated(self):
        with pytest.raises(ValueError, match="clip_factor"):
            build_operator("norm_clip", {"clip_factor": 0.0})

    def test_only_mean_is_linear(self):
        assert MeanOperator().linear
        for name in ("trimmed_mean", "coordinate_median", "norm_clip"):
            assert not build_operator(name).linear


class TestMeanOperator:
    @pytest.mark.parametrize("precise", [True, False])
    def test_combine_is_mean_state(self, rng, precise):
        buf = PoolBuffer.from_states(make_pool(rng, k=5, with_int=True))
        ours = MeanOperator().combine(buf, precise=precise)
        reference = buf.mean_state(precise=precise)
        np.testing.assert_array_equal(ours, reference)

    def test_weighted_combine_matches(self, rng):
        buf = PoolBuffer.from_states(make_pool(rng, k=4))
        weights = [1.0, 2.0, 3.0, 4.0]
        ours = MeanOperator().combine(buf, weights)
        reference = buf.mean_state(weights)
        np.testing.assert_array_equal(ours, reference)

    @pytest.mark.parametrize(
        "co", [[1, 2, 3, 0], [[1, 2], [2, 3], [3, 0], [0, 1]]]
    )
    def test_cross_blend_is_cross_aggregate(self, rng, co):
        buf = PoolBuffer.from_states(make_pool(rng, k=4, with_int=True))
        ours = MeanOperator().cross_blend(buf, co, 0.9)
        reference = buf.cross_aggregate(co, 0.9)
        np.testing.assert_array_equal(
            ours.storage.row_block(0, 4), reference.storage.row_block(0, 4)
        )


class TestRobustCombine:
    @pytest.mark.parametrize(
        "op", [TrimmedMeanOperator(), CoordinateMedianOperator()]
    )
    def test_combine_matches_numpy_reference(self, rng, op):
        buf = crafted_buf(rng, k=6, outliers=(2,), with_int=True)
        expected = reduce_for(op, rows64(buf)).astype(np.float32)
        flat = op.combine(buf)
        assert flat.dtype == np.float32
        cols = ~buf.layout.integer_mask()
        np.testing.assert_array_equal(flat[cols], expected[cols])

    def test_combine_carries_ints_from_row_zero(self, rng):
        buf = crafted_buf(rng, k=5, with_int=True)
        for name in ("trimmed_mean", "coordinate_median", "norm_clip"):
            state = buf.layout.unflatten(build_operator(name).combine(buf))
            np.testing.assert_array_equal(state["c.steps"], [1])

    def test_rank_combines_ignore_weights(self, rng):
        buf = crafted_buf(rng, k=5)
        op = CoordinateMedianOperator()
        unweighted = op.combine(buf)
        weighted = op.combine(buf, [5.0, 1.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(unweighted, weighted)

    def test_outlier_row_cannot_move_the_median(self, rng):
        seed = rng.integers(1 << 31)
        clean = crafted_buf(np.random.default_rng(seed), k=5)
        poisoned = crafted_buf(
            np.random.default_rng(seed), k=5, outliers=(4,), magnitude=1e4
        )
        op = CoordinateMedianOperator()
        a, b = op.combine(clean), op.combine(poisoned)
        np.testing.assert_allclose(a, b, atol=0.05)

    def test_norm_clip_matches_reference_formula(self, rng):
        buf = crafted_buf(rng, k=6, outliers=(1,))
        op = NormClipOperator()
        weights = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        vals = rows64(buf)
        center = np.median(vals, axis=0)
        diff = vals - center
        norms = np.sqrt((diff * diff).sum(axis=1))
        med = np.median(norms)
        tau = max(med + 3.0 * np.median(np.abs(norms - med)), 2.0 * med)
        scales = np.minimum(1.0, tau / norms)
        w = weights / weights.sum()
        expected = center + ((w * scales)[:, None] * diff).sum(axis=0)
        flat = op.combine(buf, weights)
        np.testing.assert_allclose(flat, expected.astype(np.float32), rtol=1e-6)


class TestRobustCrossBlend:
    @pytest.mark.parametrize(
        "op", [TrimmedMeanOperator(), CoordinateMedianOperator()]
    )
    def test_benign_round_delegates_bitwise(self, rng, op):
        buf = crafted_buf(rng, k=6, with_int=True)
        co = [1, 2, 3, 4, 5, 0]
        _, flagged = trust_region_for(op, buf)
        assert not flagged.any()
        ours = op.cross_blend(buf, co, 0.99)
        reference = buf.cross_aggregate(co, 0.99)
        np.testing.assert_array_equal(
            ours.storage.row_block(0, 6), reference.storage.row_block(0, 6)
        )

    def test_flagged_rows_rejected_as_primary_and_collaborator(self, rng):
        op = TrimmedMeanOperator()
        buf = crafted_buf(rng, k=6, outliers=(2,), with_int=True)
        co = np.array([2, 2, 3, 4, 5, 0])  # rows 0 and 1 pick the outlier
        center, flagged = trust_region_for(op, buf)
        np.testing.assert_array_equal(flagged, [0, 0, 1, 0, 0, 0])
        alpha = 0.9
        vals = rows64(buf)
        # The stand-in is a pool row: the center rounded to pool dtype.
        stand_in = center.astype(np.float32).astype(np.float64)
        src = buf.storage.row_block(0, 6)
        int_mask = buf.layout.integer_mask()
        expected = np.empty_like(src)
        for i in range(6):
            m = stand_in if flagged[i] else vals[i]
            collab = stand_in if flagged[co[i]] else vals[co[i]]
            fused = (alpha * m + (1.0 - alpha) * collab).astype(np.float32)
            fused[int_mask] = src[i, int_mask]
            expected[i] = fused
        out = op.cross_blend(buf, co, alpha)
        np.testing.assert_array_equal(out.storage.row_block(0, 6), expected)

    def test_propeller_blend_rejects_flagged_collaborators(self, rng):
        op = CoordinateMedianOperator()
        buf = crafted_buf(rng, k=6, outliers=(5,))
        co = np.array([[1, 5], [2, 5], [3, 5], [4, 5], [0, 5], [0, 1]])
        center, flagged = trust_region_for(op, buf)
        assert flagged[5] and flagged.sum() == 1
        alpha = 0.8
        vals = rows64(buf)
        stand_in = center.astype(np.float32).astype(np.float64)
        expected = np.empty((6, buf.num_scalars), dtype=np.float32)
        for i in range(6):
            m = stand_in if flagged[i] else vals[i]
            collab = np.zeros(buf.num_scalars)
            for j in co[i]:
                collab += 0.5 * (stand_in if flagged[j] else vals[j])
            expected[i] = (alpha * m + (1.0 - alpha) * collab).astype(np.float32)
        out = op.cross_blend(buf, co, alpha)
        np.testing.assert_array_equal(out.storage.row_block(0, 6), expected)

    def test_fallback_pool_supplies_the_stand_ins(self, rng):
        # With the dispatched pool passed as fallback, a rejected row
        # degrades to its own dispatched state (the carry semantics)
        # rather than to the robust center.
        op = TrimmedMeanOperator()
        seed = rng.integers(1 << 31)
        buf = crafted_buf(np.random.default_rng(seed), k=6, outliers=(2,))
        fallback = crafted_buf(np.random.default_rng(seed + 1), k=6)
        co = np.array([2, 2, 3, 4, 5, 0])
        center, flagged = trust_region_for(op, buf)
        np.testing.assert_array_equal(np.flatnonzero(flagged), [2])
        alpha = 0.9
        vals = rows64(buf)
        stand_in = fallback.storage.row_block(0, 6).astype(np.float64)
        expected = np.empty((6, buf.num_scalars), dtype=np.float32)
        for i in range(6):
            m = stand_in[i] if flagged[i] else vals[i]
            collab = stand_in[co[i]] if flagged[co[i]] else vals[co[i]]
            expected[i] = (alpha * m + (1.0 - alpha) * collab).astype(np.float32)
        out = op.cross_blend(buf, co, alpha, fallback=fallback)
        np.testing.assert_array_equal(out.storage.row_block(0, 6), expected)

    def test_blend_carries_ints_from_source_row(self, rng):
        buf = crafted_buf(rng, k=5, outliers=(0,), with_int=True)
        out = TrimmedMeanOperator().cross_blend(buf, [1, 2, 3, 4, 0], 0.9)
        for i in range(5):
            np.testing.assert_array_equal(out.as_state(i)["c.steps"], [i + 1])

    def test_identical_rows_flag_nothing(self, rng):
        state = make_state(rng)
        layout = StateLayout.from_state(state)
        buf = PoolBuffer.broadcast(layout, layout.flatten(state), 5)
        for name in ("trimmed_mean", "coordinate_median", "norm_clip"):
            op = build_operator(name)
            out = op.cross_blend(buf, [1, 2, 3, 4, 0], 0.9)
            np.testing.assert_array_equal(
                out.storage.row_block(0, 5), buf.storage.row_block(0, 5)
            )


def reference_detection(op, buf):
    """``(norms, flags)`` of trust-region detection as a whole-pool
    computation: the detection columns gathered with an explicit index
    array, deviations cast with ``astype`` and reduced in one einsum."""
    k, p = buf.storage.shape
    int_mask = buf.layout.integer_mask()
    cols = np.flatnonzero(~int_mask)
    if cols.size > operators._DETECTION_SAMPLE:
        cols = cols[:: -(-cols.size // operators._DETECTION_SAMPLE)]
    # C order, like a gathered slab: einsum's bits follow memory order,
    # and a column gather alone comes back in F order.
    vals = np.ascontiguousarray(buf.storage.row_block(0, k)[:, cols])
    center = op._from_sorted(np.sort(vals, axis=0))
    diff = vals.astype(np.float64) - center
    norms = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    med = np.median(norms)
    mad = np.median(np.abs(norms - med))
    tau = max(med + op.clip_factor * mad, 2.0 * med)
    return norms, (norms > tau if tau > 0 else np.zeros(k, dtype=bool))


class TestDetectionColumns:
    """Detection reads its columns as a slice where the layout allows
    and takes deviations in pair scratch; neither may move a bit."""

    # norm_clip detects through coordinate_median's center.
    @pytest.mark.parametrize("name", ["trimmed_mean", "coordinate_median"])
    @pytest.mark.parametrize("with_int", [False, True])
    @pytest.mark.parametrize("sample", [None, 8600])
    @pytest.mark.parametrize("k", [1, 2, 5, 6])
    @pytest.mark.parametrize("budget", ["ambient", 8])
    def test_flags_and_norms_equal_the_gathered_reference(
        self, rng, monkeypatch, name, with_int, sample, k, budget
    ):
        # Rows of ~68 KB: one view of the pool at the default budget,
        # one row per read span at 8 bytes (or at CI's 4 KiB re-run).
        # Every column count, the sampled ~8.5k included, is over the
        # 8192 elements above which np.einsum's bits depend on how many
        # rows its operand has.
        if sample is not None:
            monkeypatch.setattr(operators, "_DETECTION_SAMPLE", sample)
        if budget != "ambient":
            monkeypatch.setenv("REPRO_POOL_BLOCK_BYTES", str(budget))
        states = []
        for i in range(k):
            state = make_state(rng, with_int=with_int)
            state["b.weight"] = rng.standard_normal((170, 100)).astype(np.float32)
            if i == k // 2:
                state = {
                    key: val if val.dtype == np.int64 else val + np.float32(40.0)
                    for key, val in state.items()
                }
            states.append(state)
        buf = PoolBuffer.from_states(states, dtype=np.float32)
        cols, _ = operators._detection_columns(buf.layout, buf.num_scalars)
        assert isinstance(cols, np.ndarray) == with_int
        op = build_operator(name)
        norms, flags = reference_detection(op, buf)
        np.testing.assert_array_equal(op._detection_norms(buf), norms)
        np.testing.assert_array_equal(op._detect(buf), flags)

    @pytest.mark.parametrize("group_rows", [1, 2, 3, 4, 7])
    def test_deviation_norms_equal_a_grouped_einsum(self, rng, group_rows):
        # The pair scratch gives every row the bits np.einsum gives it
        # inside its group, a lone row included.
        k = 7
        states = [{"w": rng.standard_normal(9000).astype(np.float32)} for _ in range(k)]
        buf = PoolBuffer.from_states(states, dtype=np.float32)
        center = rng.standard_normal(buf.num_scalars)
        vals = rows64(buf)
        expected = np.concatenate([
            np.einsum("ij,ij->i", vals[g0:g0 + group_rows] - center,
                      vals[g0:g0 + group_rows] - center)
            for g0 in range(0, k, group_rows)
        ])
        got = _deviation_norms(buf.storage, center, slice(None), group_rows)
        np.testing.assert_array_equal(got, np.sqrt(expected))
