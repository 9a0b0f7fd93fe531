"""StateLayout / PoolBuffer: the vectorized middleware-pool engine."""

import numpy as np
import pytest

from repro.core.gram import GramTracker
from repro.core.pool import PoolBuffer
from repro.core.selection import CoModelSel, select_in_order
from repro.robust.operators import available_operators
from repro.utils.layout import StateLayout

from _dict_oracle import flatten_state_dict  # the state-dict oracle


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


class TestStateLayout:
    def test_sorted_key_order_matches_flatten_state_dict(self, rng):
        state = make_state(rng)
        layout = StateLayout.from_state(state)
        assert list(layout.keys) == sorted(state)
        np.testing.assert_array_equal(
            layout.flatten(state), flatten_state_dict(state)
        )

    def test_cached_by_signature(self, rng):
        a, b = make_state(rng), make_state(rng)
        assert StateLayout.from_state(a) is StateLayout.from_state(b)

    def test_unflatten_roundtrip(self, rng):
        state = make_state(rng, with_int=True)
        layout = StateLayout.from_state(state)
        row = layout.flatten(state)
        back = layout.unflatten(row)
        assert set(back) == set(state)
        for key in state:
            np.testing.assert_array_equal(back[key], state[key])
            assert back[key].dtype == state[key].dtype
            assert back[key].shape == state[key].shape

    def test_mask_selects_exactly_the_keys(self, rng):
        state = make_state(rng)
        layout = StateLayout.from_state(state)
        mask = layout.mask({"a.bias"})
        assert mask.sum() == 4
        full = layout.flatten(state)
        np.testing.assert_array_equal(full[mask], state["a.bias"])

    def test_mask_is_cached(self, rng):
        layout = StateLayout.from_state(make_state(rng))
        assert layout.mask({"a.bias"}) is layout.mask({"a.bias"})
        assert layout.mask(None) is layout.mask(None)

    def test_integer_mask(self, rng):
        state = make_state(rng, with_int=True)
        layout = StateLayout.from_state(state)
        assert layout.integer_keys == ("c.steps",)
        assert layout.integer_mask().sum() == 1

    def test_flatten_rejects_mismatched_keys(self, rng):
        layout = StateLayout.from_state(make_state(rng))
        with pytest.raises(KeyError):
            layout.flatten({"other": np.zeros(2)})


class TestPoolBufferBasics:
    def test_from_states_roundtrip(self, rng):
        pool = make_pool(rng, k=3, with_int=True)
        buf = PoolBuffer.from_states(pool)
        assert len(buf) == 3
        for i, state in enumerate(pool):
            back = buf.as_state(i)
            for key in state:
                np.testing.assert_array_equal(back[key], state[key])
                assert back[key].dtype == state[key].dtype

    def test_as_state_views_are_zero_copy(self, rng):
        buf = PoolBuffer.from_states(make_pool(rng, k=2))
        view = buf.as_state(0)["a.bias"]
        buf.matrix[0, buf.layout.by_key["a.bias"].offset] = 42.0
        assert view.reshape(-1)[0] == 42.0

    def test_broadcast_replicates_one_state(self, rng):
        state = make_state(rng)
        layout = StateLayout.from_state(state)
        buf = PoolBuffer.broadcast(layout, layout.flatten(state), 5)
        assert len(buf) == 5
        np.testing.assert_array_equal(buf.matrix[0], buf.matrix[4])

    def test_set_state_rejects_mismatched_keys(self, rng):
        buf = PoolBuffer.from_states(make_pool(rng, k=2))
        with pytest.raises(KeyError):
            buf.set_state(0, {"bogus": np.zeros(1)})

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            PoolBuffer.from_states([])


class TestVectorizedSimilarity:
    """A pool's cosine is a fresh tracker's, on the buffer's own dtype."""

    def test_cosine_gram_unit_diagonal(self, rng):
        buf = PoolBuffer.from_states(make_pool(rng, k=5))
        sim = GramTracker.from_pool(buf).similarity()
        np.testing.assert_allclose(np.diag(sim), np.ones(5), rtol=1e-6)
        np.testing.assert_allclose(sim, sim.T, atol=1e-12)

    def test_zero_norm_row_gets_zero_similarity(self, rng):
        pool = make_pool(rng, k=3)
        zeroed = {k: np.zeros_like(v) for k, v in pool[1].items()}
        buf = PoolBuffer.from_states([pool[0], zeroed, pool[2]])
        sim = GramTracker.from_pool(buf).similarity()
        np.testing.assert_array_equal(sim[1], np.zeros(3))
        np.testing.assert_array_equal(sim[:, 1], np.zeros(3))


class TestVectorizedSelection:
    """``CoModelSel.select_all`` over a float32 pool."""

    def test_in_order_matches_closed_form(self, rng):
        buf = PoolBuffer.from_states(make_pool(rng, k=6))
        for r in range(8):
            co = CoModelSel("in_order").select_all(buf, r)
            expected = [select_in_order(i, r, 6) for i in range(6)]
            np.testing.assert_array_equal(co, expected)

    def test_never_selects_self(self, rng):
        buf = PoolBuffer.from_states(make_pool(rng, k=5))
        for strategy in CoModelSel.STRATEGIES:
            for measure in ("cosine", "euclidean"):
                co = CoModelSel(strategy, measure).select_all(buf, 2)
                assert all(co[i] != i for i in range(5))

    def test_single_model_selects_self(self, rng):
        buf = PoolBuffer.from_states(make_pool(rng, k=1))
        np.testing.assert_array_equal(
            CoModelSel("lowest").select_all(buf, 0), np.zeros(1, dtype=np.int64)
        )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            CoModelSel("random")


class TestEuclideanMatrix:
    def test_diag_is_zero(self, rng):
        buf = PoolBuffer.from_states(make_pool(rng, k=4))
        sim = buf.euclidean_matrix()
        np.testing.assert_allclose(np.diag(sim), np.zeros(4), atol=1e-12)
        assert (sim <= 0).all()


class TestVectorizedAggregation:
    def test_cross_aggregate_blends_rows(self, rng):
        pool = make_pool(rng, k=3)
        buf = PoolBuffer.from_states(pool)
        co = np.array([1, 2, 0])
        out = buf.cross_aggregate(co, alpha=0.75)
        for i in range(3):
            got = out.as_state(i)
            for key in pool[i]:
                expected = (
                    0.75 * pool[i][key].astype(np.float64)
                    + 0.25 * pool[co[i]][key].astype(np.float64)
                ).astype(np.float32)
                np.testing.assert_array_equal(got[key], expected)

    @pytest.mark.parametrize("backend", ["dense", "sharded"])
    def test_one_collaborator_entry_per_row(self, rng, backend):
        # The in-place blend walks the collaborator list: a short one
        # would leave output rows unwritten.
        buf = PoolBuffer.from_states(make_pool(rng, k=3), backend=backend)
        for co in ([1, 2], [1, 2, 0, 1], [[1], [2]]):
            with pytest.raises(ValueError, match="for a pool of K=3"):
                buf.cross_aggregate(np.array(co), 0.5)

    def test_integer_fields_carried_not_averaged(self, rng):
        pool = make_pool(rng, k=3, with_int=True)
        for i, state in enumerate(pool):
            state["c.steps"] = np.array([10 * (i + 1)], dtype=np.int64)
        buf = PoolBuffer.from_states(pool)
        out = buf.cross_aggregate(np.array([1, 2, 0]), alpha=0.5)
        for i in range(3):
            np.testing.assert_array_equal(
                out.as_state(i)["c.steps"], pool[i]["c.steps"]
            )
        mean = buf.layout.unflatten(buf.mean_state())
        np.testing.assert_array_equal(mean["c.steps"], pool[0]["c.steps"])

    def test_propeller_groups_fuse_with_group_mean(self, rng):
        pool = make_pool(rng, k=4)
        buf = PoolBuffer.from_states(pool)
        groups = np.array([[1, 2], [2, 3], [3, 0], [0, 1]])
        out = buf.cross_aggregate(groups, alpha=0.8)
        for i in range(4):
            got = out.as_state(i)
            for key in pool[i]:
                group_mean = 0.5 * pool[groups[i, 0]][key].astype(np.float64) + (
                    0.5 * pool[groups[i, 1]][key].astype(np.float64)
                )
                expected = (
                    0.8 * pool[i][key].astype(np.float64) + 0.2 * group_mean
                ).astype(np.float32)
                np.testing.assert_allclose(got[key], expected, rtol=1e-6)

    def test_mean_state_matches_numpy_mean(self, rng):
        pool = make_pool(rng, k=4)
        buf = PoolBuffer.from_states(pool)
        mean = buf.layout.unflatten(buf.mean_state())
        for key in pool[0]:
            expected = np.mean([s[key] for s in pool], axis=0)
            np.testing.assert_allclose(mean[key], expected, rtol=1e-5, atol=1e-7)

    def test_mean_state_weight_validation(self, rng):
        buf = PoolBuffer.from_states(make_pool(rng, k=2))
        with pytest.raises(ValueError):
            buf.mean_state(weights=[1.0])
        with pytest.raises(ValueError):
            buf.mean_state(weights=[0.0, 0.0])

    def test_dispersion_zero_for_identical_pool(self, rng):
        state = make_state(rng)
        layout = StateLayout.from_state(state)
        buf = PoolBuffer.broadcast(layout, layout.flatten(state), 4)
        assert buf.dispersion() == 0.0

    def test_float32_pool_rejects_unrepresentable_integers(self, rng):
        state = make_state(rng, with_int=True)
        state["c.steps"] = np.array([2**24 + 1], dtype=np.int64)
        layout = StateLayout.from_state(state)
        row = layout.flatten(state)
        with pytest.raises(ValueError, match="round-trip"):
            PoolBuffer.broadcast(layout, row, 2, dtype=np.float32)
        # a wider pool dtype accepts the same value
        buf = PoolBuffer.broadcast(layout, row, 2, dtype=np.float64)
        np.testing.assert_array_equal(buf.as_state(0)["c.steps"], [2**24 + 1])


class TestBlockwiseOps:
    """Row-blocked cross-aggregation / euclidean similarity must be
    bit-identical for every block size (the out-of-core guarantee)."""

    def test_cross_aggregate_block_size_invariant(self, rng):
        pool = make_pool(rng, k=7, with_int=True)
        buf = PoolBuffer.from_states(pool, dtype=np.float32)
        co = (np.arange(7) + 2) % 7
        ref = buf.cross_aggregate(co, 0.93, block_rows=7).matrix
        for block in (1, 2, 3, 5, 100):
            got = buf.cross_aggregate(co, 0.93, block_rows=block).matrix
            np.testing.assert_array_equal(got, ref)

    def test_propeller_cross_aggregate_block_size_invariant(self, rng):
        pool = make_pool(rng, k=6)
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        groups = np.stack([(np.arange(6) + 1) % 6, (np.arange(6) + 3) % 6], axis=1)
        ref = buf.cross_aggregate(groups, 0.8, block_rows=6).matrix
        for block in (1, 2, 4):
            got = buf.cross_aggregate(groups, 0.8, block_rows=block).matrix
            np.testing.assert_array_equal(got, ref)

    def test_cross_aggregate_default_block_on_memmap(self, rng):
        pool = make_pool(rng, k=5, with_int=True)
        dense = PoolBuffer.from_states(pool, dtype=np.float32, backend="dense")
        mm = PoolBuffer.from_states(pool, dtype=np.float32, backend="memmap")
        co = (np.arange(5) + 1) % 5
        out = mm.cross_aggregate(co, 0.9)
        assert out.backend == "memmap"
        np.testing.assert_array_equal(
            out.matrix, dense.cross_aggregate(co, 0.9).matrix
        )

    def test_euclidean_block_size_agreement(self, rng):
        """Cross-block-size agreement is ulp-tight (the P reduction may
        move by the last ulp with operand shape); same block size is
        exactly reproducible."""
        pool = make_pool(rng, k=6)
        buf = PoolBuffer.from_states(pool, dtype=np.float32)
        ref = buf.euclidean_matrix(block_rows=6)
        for block in (1, 2, 4, 50):
            got = buf.euclidean_matrix(block_rows=block)
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
            np.testing.assert_array_equal(
                got, buf.euclidean_matrix(block_rows=block)
            )

    def test_euclidean_matches_per_row_loop(self, rng):
        buf = PoolBuffer.from_states(make_pool(rng, k=5), dtype=np.float64)
        v = buf.matrix.astype(np.float64, copy=False)
        ref = np.zeros((5, 5))
        for i in range(5):
            diff = v - v[i]
            ref[i] = -np.sqrt(np.einsum("kp,kp->k", diff, diff))
        np.testing.assert_allclose(
            buf.euclidean_matrix(), ref, rtol=1e-13, atol=0
        )

    def test_euclidean_cancellation_safety(self, rng):
        """Near-identical rows (the converged-pool regime) must keep
        small distances instead of collapsing to the catastrophic
        cancellation of the norm-expansion formula."""
        base = rng.standard_normal(8) * 1e3
        states = [
            {"w": (base + eps).astype(np.float64)}
            for eps in (0.0, 1e-7, 2e-7)
        ]
        buf = PoolBuffer.from_states(states, dtype=np.float64)
        sim = buf.euclidean_matrix()
        expected = -np.sqrt(8) * 1e-7
        np.testing.assert_allclose(sim[0, 1], expected, rtol=1e-6)
        np.testing.assert_allclose(sim[1, 2], expected, rtol=1e-6)
        assert sim[0, 2] < sim[0, 1] < 0.0

    def test_mean_state_precise_streams_rows(self, rng):
        """precise=True must match the old whole-matrix float64 path."""
        pool = make_pool(rng, k=6, with_int=True)
        buf = PoolBuffer.from_states(pool, dtype=np.float32)
        weights = [float(w) for w in rng.integers(1, 9, size=6)]
        m = buf.matrix.astype(np.float64)
        acc = np.zeros(buf.num_scalars)
        w = np.asarray(weights) / np.sum(weights)
        for i in range(6):
            acc += w[i] * m[i]
        ref = acc.astype(np.float32)
        flat = buf.mean_state(weights, precise=True)
        int_mask = buf.layout.integer_mask()
        np.testing.assert_array_equal(flat[~int_mask], ref[~int_mask])
        np.testing.assert_array_equal(flat[int_mask], buf.matrix[0, int_mask])


def _literal_blend(matrix, co, alpha, int_mask):
    """Today's whole-block expression, written out: the blend's spec."""
    m64 = matrix.astype(np.float64)
    if co.ndim == 1:
        c64 = m64[co]
    else:
        c64 = np.zeros_like(m64)
        for j in range(co.shape[1]):
            c64 += (1.0 / co.shape[1]) * m64[co[:, j]]
    out = (alpha * m64 + (1.0 - alpha) * c64).astype(matrix.dtype)
    out[:, int_mask] = matrix[:, int_mask]
    return out


class TestOutOfCoreRound:
    def test_memmap_server_round_never_allocates_half_a_float64_pool(
        self, monkeypatch
    ):
        """One full server round of pool ops on a memmap pool under a
        1 MiB block budget (tracemalloc sees NumPy data, not the
        file-backed pages): a peak near a whole-pool float64 temporary
        means a ``(K, P)`` cast is back on the cosine path."""
        import tracemalloc

        k, rng = 24, np.random.default_rng(3)
        state = {
            "w": rng.standard_normal((400, 256)).astype(np.float32),
            "b": rng.standard_normal(400).astype(np.float32),
            "steps": np.array([3], dtype=np.int64),
        }
        param_keys = {"w", "b"}
        monkeypatch.setenv("REPRO_POOL_BLOCK_BYTES", str(1 << 20))
        layout = StateLayout.from_state(state)
        pool = PoolBuffer.broadcast(
            layout, layout.flatten(state), k, dtype=np.float32, backend="memmap"
        )
        p = pool.num_scalars
        float_cols = ~pool.layout.integer_mask()
        for i in range(k):  # perturb row by row — no (K, P) host copy
            pool.row(i)[float_cols] += rng.standard_normal(p - 1).astype(np.float32) / 100
        tracemalloc.start()
        try:
            tracker = GramTracker.from_pool(pool, param_keys=param_keys)
            co = CoModelSel("lowest", param_keys=param_keys).select_all(
                pool, 0, gram=tracker.gram
            )
            fused = pool.cross_aggregate(co, 0.99)
            derived = tracker.cross_aggregated(co, 0.99, pool=fused)
            derived.similarity()
            GramTracker.from_pool(fused, param_keys=param_keys).similarity()
            fused.dispersion(param_keys=param_keys)
            fused.mean_state(precise=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fused.backend == "memmap"
        assert peak < k * p * 8 / 2


class TestInPlaceKernels:
    """In-RAM pool kernels at the default budget read the pool through
    row views, write into their destination rows and keep their float64
    work in ``(P,)`` scratch rows: no whole-pool temporary beyond what a
    kernel returns and, for robust detection, the one slab it sorts.
    Bounds are in float64 rows (``8·P`` bytes) on top of that."""

    K = 24

    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_POOL_BLOCK_BYTES", raising=False)
        rng = np.random.default_rng(40)
        state = {
            "w": rng.standard_normal((300, 200)).astype(np.float32),
            "b": rng.standard_normal(300).astype(np.float32),
        }
        layout = StateLayout.from_state(state)
        pool = PoolBuffer.broadcast(layout, layout.flatten(state), self.K, dtype=np.float32)
        for i in range(self.K):
            pool.row(i)[:] += rng.standard_normal(pool.num_scalars).astype(np.float32) / 100
        pool.row(5)[:] += 50.0  # the one row outside every trust region
        return pool

    @staticmethod
    def _peak(fn):
        import tracemalloc

        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_cross_aggregate_holds_scratch_rows(self, pool):
        # The new pool (K·P·4 bytes) plus four float64 rows: a gathered
        # collaborator block or a staged output block is a pool more.
        k, p = self.K, pool.num_scalars
        co = np.roll(np.arange(k), 1)
        groups = np.stack([co, np.roll(co, 1)], axis=1)
        for collaborators in (co, groups):
            peak = self._peak(lambda: pool.cross_aggregate(collaborators, 0.9))
            assert peak < k * p * 4 + 4 * p * 8

    def test_in_place_cross_aggregate_holds_scratch_rows(self, pool):
        # No new pool: two float64 scratch rows and the spare rows the
        # schedule copies cycles' rows into (one for a 1-D co).
        k, p = self.K, pool.num_scalars
        co = np.roll(np.arange(k), 1)
        groups = np.stack([co, np.roll(co, 1)], axis=1)
        for collaborators in (co, groups):
            peak = self._peak(lambda: pool.cross_aggregate(collaborators, 0.9, out=pool))
            assert peak < 4 * p * 8
        with pytest.raises(ValueError, match="out must be None"):
            pool.cross_aggregate(co, 0.9, out=pool.copy())

    def test_precise_mean_holds_two_float64_rows(self, pool):
        # The accumulator and one scratch term, then the buffer-dtype
        # result beside the accumulator: under 2.5 float64 rows.  A cast
        # of each row plus its weighted copy reach three.
        p = pool.num_scalars
        peak = self._peak(lambda: pool.mean_state(precise=True))
        assert peak < 2.5 * p * 8

    @pytest.mark.parametrize("name", available_operators())
    def test_cross_blend_holds_one_pool_copy(self, pool, name):
        # Detection's sorted slab and the blend's new pool (K·P·4 each)
        # are never alive together; eight float64 rows cover the rest.
        # Unsorted and sorted copies plus float64 deviations are K·P·20.
        from repro.robust.operators import build_operator

        op = build_operator(name)
        if name != "mean":
            np.testing.assert_array_equal(np.flatnonzero(op._detect(pool)), [5])
        k, p = self.K, pool.num_scalars
        peak = self._peak(lambda: op.cross_blend(pool, np.roll(np.arange(k), 1), 0.9))
        assert peak < k * p * 4 + 8 * p * 8


class TestRowKernelBlend:
    """``cross_aggregate`` does its float64 arithmetic row by row
    (:func:`repro.core.pool.blend_row`): same bits as the literal
    whole-block expression, without its ``(block, P)`` float64 temps."""

    @pytest.mark.parametrize("backend", ["dense", "memmap", "sharded"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("propellers", [0, 1, 3])
    def test_bitwise_equals_literal_expression(
        self, rng, backend, dtype, propellers
    ):
        k = 7
        buf = PoolBuffer.from_states(
            make_pool(rng, k=k, with_int=True), dtype=dtype, backend=backend
        )
        # Signed zeros are where "skip the zero-initialised accumulator"
        # shortcuts would show.
        row = buf.row(2)
        row[:3] = [-0.0, 0.0, -0.0]
        if propellers:
            co = np.stack(
                [(np.arange(k) + s + 1) % k for s in range(propellers)], axis=1
            )
        else:
            co = rng.integers(0, k, size=k)
        matrix = np.array(buf.matrix)
        int_mask = buf.layout.integer_mask()
        assert int_mask.any()
        for alpha in (0.99, 0.5, 1.0):
            ref = _literal_blend(matrix, co, alpha, int_mask)
            for block in (1, 3, k):
                got = buf.cross_aggregate(co, alpha, block_rows=block)
                assert got.backend == backend
                got = np.asarray(got.matrix)
                np.testing.assert_array_equal(got, ref)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))

    def test_no_block_sized_float64_temporary(self):
        """Peak traced allocation of a dense float32 blend: the output
        storage, one gathered block, one output block and a few (P,)
        rows — nothing the size of a float64 block."""
        import tracemalloc

        k, p = 16, 50_000
        rng = np.random.default_rng(5)
        layout = StateLayout.from_state({"w": np.zeros(p, dtype=np.float32)})
        buf = PoolBuffer(layout, rng.standard_normal((k, p)).astype(np.float32))
        co = (np.arange(k) + 1) % k
        block32 = k * p * 4
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            out = buf.cross_aggregate(co, 0.99)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == k
        # output storage + gathered + output block, plus 4 (P,) float64
        # rows of slack; one (K, P) float64 temp alone would add 2 more
        # float32 blocks.
        assert peak - base < 3 * block32 + 4 * p * 8
