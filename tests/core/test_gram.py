"""GramTracker: incremental Gram maintenance and (K, K) algebra."""

import numpy as np
import pytest

from repro.core.gram import GramTracker
from repro.core.pool import PoolBuffer, cosine_from_gram


def make_pool(k=5, rng=None, dtype=np.float64):
    rng = rng if rng is not None else np.random.default_rng(0)
    states = [
        {"w": rng.standard_normal(11), "b": rng.standard_normal(4)} for _ in range(k)
    ]
    return PoolBuffer.from_states(
        [{key: v.astype(dtype) for key, v in s.items()} for s in states], dtype=dtype
    )


class TestMaintenance:
    def test_from_pool_matches_fresh_gram(self, rng):
        pool = make_pool(rng=rng)
        tracker = GramTracker.from_pool(pool)
        np.testing.assert_allclose(tracker.gram, pool.gram_matrix(), rtol=1e-12)

    def test_masked_tracker_matches_masked_gram(self, rng):
        pool = make_pool(rng=rng)
        tracker = GramTracker.from_pool(pool, param_keys={"w"})
        np.testing.assert_allclose(
            tracker.gram, pool.gram_matrix(param_keys={"w"}), rtol=1e-12
        )

    def test_update_row_tracks_pool_mutation(self, rng):
        pool = make_pool(rng=rng)
        tracker = GramTracker.from_pool(pool)
        pool.matrix[2] = rng.standard_normal(pool.num_scalars)
        tracker.update_row(2)
        np.testing.assert_allclose(tracker.gram, pool.gram_matrix(), rtol=1e-12)

    def test_update_order_is_bitwise_irrelevant(self, rng):
        """The streamed-vs-gathered keystone: any full update sequence
        lands on the same bits."""
        pool = make_pool(k=6, rng=rng)
        reference = GramTracker(pool)
        for i in range(6):
            reference.update_row(i)
        for order in ([5, 4, 3, 2, 1, 0], [3, 0, 5, 1, 4, 2], [0, 2, 4, 1, 3, 5]):
            tracker = GramTracker(pool)
            for i in order:
                tracker.update_row(i)
            np.testing.assert_array_equal(tracker.gram, reference.gram)

    def test_stale_entries_overwritten_by_later_update(self, rng):
        """A row updated before its partner changed is refreshed by the
        partner's own update — the streaming-collect access pattern."""
        pool = make_pool(k=3, rng=rng)
        tracker = GramTracker(pool)
        tracker.update_row(0)
        pool.matrix[1] = rng.standard_normal(pool.num_scalars)
        tracker.update_row(1)  # refreshes the (0, 1) pair with fresh data
        tracker.update_row(2)
        np.testing.assert_allclose(tracker.gram, pool.gram_matrix(), rtol=1e-12)

    def test_update_out_of_range_rejected(self, rng):
        tracker = GramTracker(make_pool(rng=rng))
        with pytest.raises(IndexError):
            tracker.update_row(5)

    def test_bad_gram_shape_rejected(self, rng):
        with pytest.raises(ValueError, match="does not match pool size"):
            GramTracker(make_pool(k=4, rng=rng), gram=np.zeros((3, 3)))


class TestAlgebra:
    def test_similarity_matches_pool_cosine(self, rng):
        pool = make_pool(rng=rng)
        tracker = GramTracker.from_pool(pool, param_keys={"w"})
        np.testing.assert_allclose(
            tracker.similarity(),
            pool.similarity_matrix("cosine", param_keys={"w"}),
            rtol=1e-12,
        )

    def test_similarity_to_is_similarity_row(self, rng):
        tracker = GramTracker.from_pool(make_pool(rng=rng))
        np.testing.assert_array_equal(tracker.similarity_to(2), tracker.similarity()[2])

    def test_zero_norm_rows_get_zero_similarity(self):
        pool = PoolBuffer.from_states(
            [{"w": np.zeros(4)}, {"w": np.ones(4)}], dtype=np.float64
        )
        sim = GramTracker.from_pool(pool).similarity()
        assert sim[0, 0] == 0.0 and sim[0, 1] == 0.0 and sim[1, 0] == 0.0
        assert sim[1, 1] == pytest.approx(1.0)

    def test_dispersion_matches_pool(self, rng):
        pool = make_pool(rng=rng)
        tracker = GramTracker.from_pool(pool)
        assert tracker.dispersion() == pytest.approx(pool.dispersion(), rel=1e-9)

    def test_dispersion_zero_for_identical_pool(self, rng):
        state = {"w": rng.standard_normal(6)}
        pool = PoolBuffer.broadcast(state, 4, dtype=np.float64)
        # Gram sums cancel to round-off; the clip keeps the sqrt real.
        assert GramTracker.from_pool(pool).dispersion() == pytest.approx(0.0, abs=1e-6)

    def test_cosine_from_gram_diag_is_one(self, rng):
        pool = make_pool(rng=rng)
        sim = cosine_from_gram(pool.gram_matrix())
        np.testing.assert_allclose(np.diag(sim), 1.0, rtol=1e-12)


class TestClosedFormCrossAggregate:
    def test_matches_recompute_on_new_pool(self, rng):
        pool = make_pool(k=6, rng=rng)
        tracker = GramTracker.from_pool(pool)
        co = np.array([1, 2, 3, 4, 5, 0])
        new_pool = pool.cross_aggregate(co, 0.8)
        got = tracker.cross_aggregated(co, 0.8, pool=new_pool)
        ref = GramTracker.from_pool(new_pool)
        scale = np.abs(ref.gram).max()
        np.testing.assert_allclose(got.gram, ref.gram, rtol=1e-10, atol=1e-10 * scale)
        assert got.pool is new_pool

    def test_propeller_matrix_matches_recompute(self, rng):
        k = 5
        pool = make_pool(k=k, rng=rng)
        tracker = GramTracker.from_pool(pool)
        props = np.array([[(i + 1) % k, (i + 2) % k] for i in range(k)])
        new_pool = pool.cross_aggregate(props, 0.7)
        got = tracker.cross_aggregated(props, 0.7, pool=new_pool)
        ref = GramTracker.from_pool(new_pool)
        scale = np.abs(ref.gram).max()
        np.testing.assert_allclose(got.gram, ref.gram, rtol=1e-10, atol=1e-10 * scale)

    def test_param_keys_carried_to_derived_tracker(self, rng):
        pool = make_pool(rng=rng)
        tracker = GramTracker.from_pool(pool, param_keys={"w"})
        derived = tracker.cross_aggregated(np.array([1, 2, 3, 4, 0]), 0.9)
        assert derived.param_keys == {"w"}

    def test_tracked_integer_fields_rejected(self, rng):
        """cross_aggregate carries integer fields unblended, so the
        bilinear Gram expansion would diverge by O(value²) — refuse
        loudly instead of silently voiding the tolerance contract."""
        states = [
            {"w": rng.standard_normal(4), "step": np.array(1000 * (i + 1))}
            for i in range(3)
        ]
        pool = PoolBuffer.from_states(states, dtype=np.float64)
        tracker = GramTracker.from_pool(pool)  # mask includes the counter
        with pytest.raises(ValueError, match="integer fields"):
            tracker.cross_aggregated(np.array([1, 2, 0]), 0.9)
        # Restricting the mask to float parameters keeps it valid.
        masked = GramTracker.from_pool(pool, param_keys={"w"})
        derived = masked.cross_aggregated(np.array([1, 2, 0]), 0.9)
        assert derived.gram.shape == (3, 3)

    def test_bad_co_shape_rejected(self, rng):
        tracker = GramTracker.from_pool(make_pool(rng=rng))
        with pytest.raises(ValueError, match="1- or 2-dimensional"):
            tracker.cross_aggregated(np.zeros((2, 2, 2), dtype=np.int64), 0.9)
        with pytest.raises(ValueError, match="does not match pool size"):
            tracker.cross_aggregated(np.array([0, 1]), 0.9)


class TestSelectionFromGram:
    def test_gram_selection_matches_fresh_selection_value(self, rng):
        """Gram-driven argmin must achieve the same best similarity as a
        fresh recompute (indices may differ only on exact ties)."""
        pool = make_pool(k=6, rng=rng)
        tracker = GramTracker.from_pool(pool)
        fresh = pool.select_collaborators("lowest", measure="cosine")
        via_gram = pool.select_collaborators(
            "lowest", measure="cosine", gram=tracker.gram
        )
        sim = pool.similarity_matrix("cosine")
        for i in range(6):
            np.testing.assert_allclose(
                sim[i, via_gram[i]], sim[i, fresh[i]], rtol=1e-9, atol=1e-12
            )
            assert via_gram[i] != i

    def test_gram_rejected_for_euclidean(self, rng):
        pool = make_pool(rng=rng)
        with pytest.raises(ValueError, match="cosine"):
            pool.select_collaborators(
                "lowest", measure="euclidean", gram=np.eye(len(pool))
            )

    def test_gram_shape_validated(self, rng):
        pool = make_pool(rng=rng)
        with pytest.raises(ValueError, match="does not match pool size"):
            pool.select_collaborators("lowest", gram=np.eye(3))

    def test_in_order_ignores_gram(self, rng):
        pool = make_pool(rng=rng)
        got = pool.select_collaborators("in_order", round_idx=1, gram=np.eye(len(pool)))
        np.testing.assert_array_equal(
            got, pool.select_collaborators("in_order", round_idx=1)
        )


def _upload(rng, dtype):
    return {
        "w": rng.standard_normal(11).astype(dtype),
        "b": rng.standard_normal(4).astype(dtype),
    }


def _simulate_round(pool, tracker, dispatched, rng):
    """One collect phase against the tracker's update contract: every
    row is rewritten in random order — a fresh upload, or (carry) the
    state it was dispatched with — and one landed row is quarantined
    mid-round; each write is followed by ``update_row``."""
    k = len(pool)
    order = [int(i) for i in rng.permutation(k)]
    carried = set(order[::3])
    quarantined, when = order[1], int(rng.integers(2, k))
    for n, row in enumerate(order):
        state = dispatched[row] if row in carried else _upload(rng, pool.dtype)
        pool.set_state(row, state)
        tracker.update_row(row)
        if n == when:
            pool.set_state(quarantined, dispatched[quarantined])
            tracker.update_row(quarantined)


class TestFloat64Image:
    """``update_row`` dots against a float64 image of the masked rows:
    ``update_row(i)`` re-casts row ``i`` only, other rows are cast on
    first use, ``release`` drops the image between rounds."""

    @pytest.mark.parametrize("backend", ["dense", "memmap", "sharded"])
    @pytest.mark.parametrize("keys", [None, {"w"}])
    @pytest.mark.parametrize("release", [True, False])
    def test_persistent_tracker_equals_fresh_each_round(
        self, rng, backend, keys, release
    ):
        k = 6
        dispatched = [_upload(rng, np.float32) for _ in range(k)]
        pool = PoolBuffer.from_states(dispatched, dtype=np.float32, backend=backend)
        tracker = GramTracker(pool, param_keys=keys)
        for _ in range(4):
            _simulate_round(pool, tracker, dispatched, rng)
            fresh = GramTracker.from_pool(pool, param_keys=keys)
            np.testing.assert_array_equal(tracker.gram, fresh.gram)
            if release:
                tracker.release()  # what aggregate() does once the Gram is final
            dispatched = pool.states(copy=True)  # next round trains from these

    def test_seeded_gram_updates_from_unimaged_rows(self, rng):
        """A tracker born from ``gram=`` (the ``cross_aggregated``
        output) has no image: its first update casts the rows it needs."""
        pool = make_pool(k=5, rng=rng, dtype=np.float32)
        new_pool = pool.cross_aggregate(np.array([1, 2, 3, 4, 0]), 0.9)
        derived = GramTracker.from_pool(pool).cross_aggregated(
            [1, 2, 3, 4, 0], 0.9, pool=new_pool
        )
        new_pool.row(3)[:] = rng.standard_normal(new_pool.num_scalars)
        derived.update_row(3)
        fresh = GramTracker.from_pool(new_pool)
        np.testing.assert_array_equal(derived.gram[3], fresh.gram[3])
        np.testing.assert_array_equal(derived.gram[:, 3], fresh.gram[:, 3])
        # Entries no update touched keep the closed-form values.
        np.testing.assert_allclose(derived.gram, fresh.gram, rtol=1e-5, atol=1e-5)

    def test_release_then_update_reimages_to_the_same_bits(self, rng):
        pool = make_pool(k=5, rng=rng, dtype=np.float32)
        kept, released = GramTracker(pool), GramTracker(pool)
        for i in range(5):
            kept.update_row(i)
            released.update_row(i)
        released.release()
        assert released._image is None
        np.testing.assert_array_equal(released.gram, kept.gram)
        pool.row(1)[:] = rng.standard_normal(pool.num_scalars)
        kept.update_row(1)
        released.update_row(1)
        assert released._image is not None
        np.testing.assert_array_equal(released.gram, kept.gram)

    def test_image_lives_in_the_pools_own_storage(self, rng):
        for backend in ("memmap", "sharded"):
            pool = PoolBuffer.from_states(
                [_upload(rng, np.float32) for _ in range(4)], backend=backend
            )
            tracker = GramTracker(pool, param_keys={"w"})
            tracker.update_row(0)
            assert tracker._image.name == backend
            assert tracker._image.shape == (4, 11)
            assert tracker._image.dtype == np.float64

    def test_memmap_refresh_stays_out_of_core(self, rng, monkeypatch):
        """A full refresh of a memmap pool allocates nothing (K, P)
        sized on the heap: the image is file-backed like the pool."""
        import tracemalloc

        k, p = 24, 40_000
        monkeypatch.setenv("REPRO_POOL_BLOCK_BYTES", str(1 << 20))
        pool = PoolBuffer.broadcast(
            {"w": np.zeros(p, dtype=np.float32)}, k, backend="memmap"
        )
        for i in range(k):
            pool.row(i)[:] = rng.standard_normal(p).astype(np.float32)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracker = GramTracker.from_pool(pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tracker.updates == k
        assert peak - base < k * p * 8 / 2
