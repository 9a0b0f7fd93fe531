"""GramTracker: incremental Gram maintenance and (K, K) algebra."""

import numpy as np
import pytest
from _eager_gram import EagerGram
from _selection_oracle import reference_gram

from repro.core import gram as gram_module
from repro.core.gram import GramTracker, cosine_from_gram
from repro.core.pool import PoolBuffer
from repro.utils.layout import StateLayout


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
        np.testing.assert_allclose(tracker.gram, reference_gram(pool), rtol=1e-12)

    def test_masked_tracker_matches_masked_gram(self, rng):
        pool = make_pool(rng=rng)
        tracker = GramTracker.from_pool(pool, param_keys={"w"})
        np.testing.assert_allclose(
            tracker.gram, reference_gram(pool, {"w"}), rtol=1e-12
        )

    def test_update_row_tracks_pool_mutation(self, rng):
        pool = make_pool(rng=rng)
        tracker = GramTracker.from_pool(pool)
        pool.matrix[2] = rng.standard_normal(pool.num_scalars)
        tracker.update_row(2)
        np.testing.assert_allclose(tracker.gram, reference_gram(pool), rtol=1e-12)

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
        np.testing.assert_allclose(tracker.gram, reference_gram(pool), rtol=1e-12)

    def test_from_pool_lands_no_row(self, rng, monkeypatch):
        """A rebuild is not a landing: ``from_pool`` (hence ``refresh``)
        never calls ``update_row``, so its count stays one per upload."""
        calls = []
        monkeypatch.setattr(GramTracker, "update_row", lambda self, i: calls.append(i))
        pool = make_pool(rng=rng)
        tracker = GramTracker.from_pool(pool)
        tracker.refresh()
        assert calls == []
        np.testing.assert_allclose(tracker.gram, reference_gram(pool), rtol=1e-12)

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
            cosine_from_gram(reference_gram(pool, {"w"})),
            rtol=1e-12,
        )

    def test_zero_norm_rows_get_zero_similarity(self):
        pool = PoolBuffer.from_states(
            [{"w": np.zeros(4)}, {"w": np.ones(4)}], dtype=np.float64
        )
        sim = GramTracker.from_pool(pool).similarity()
        assert sim[0, 0] == 0.0 and sim[0, 1] == 0.0 and sim[1, 0] == 0.0
        assert sim[1, 1] == pytest.approx(1.0)

    def test_cosine_from_gram_diag_is_one(self, rng):
        pool = make_pool(rng=rng)
        sim = cosine_from_gram(reference_gram(pool))
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


ROW_SOURCES = ["image", "on_the_fly"]


@pytest.fixture(params=ROW_SOURCES)
def row_source(request, monkeypatch):
    """Both places a tracker casts its dot operands: the float64 image
    (within ``IMAGE_BUDGET_BYTES``) and, with the budget at 0, two
    scratch rows cast just before each dot."""
    if request.param == "on_the_fly":
        monkeypatch.setattr(gram_module, "IMAGE_BUDGET_BYTES", 0)
    return request.param


@pytest.mark.usefixtures("row_source")
class TestFloat64Image:
    """``update_row`` dots float64 casts of the masked rows:
    ``update_row(i)`` re-casts row ``i``, a row nobody reported is cast
    when a read needs it, ``release`` drops the casts' buffer between
    rounds — on both row sources."""

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

    def test_image_lives_in_the_pools_own_storage(self, rng, row_source):
        rows = 4 if row_source == "image" else 2
        for backend in ("memmap", "sharded"):
            pool = PoolBuffer.from_states(
                [_upload(rng, np.float32) for _ in range(4)], backend=backend
            )
            tracker = GramTracker(pool, param_keys={"w"})
            tracker.update_row(0)
            assert tracker._image.name == backend
            assert tracker._image.shape == (rows, 11)
            assert tracker._image.dtype == np.float64

    def test_memmap_refresh_stays_out_of_core(self, rng, monkeypatch):
        """A full refresh of a memmap pool allocates nothing (K, P)
        sized on the heap: the image is file-backed like the pool."""
        import tracemalloc

        k, p = 24, 40_000
        monkeypatch.setenv("REPRO_POOL_BLOCK_BYTES", str(1 << 20))
        layout = StateLayout.from_state({"w": np.zeros(p, dtype=np.float32)})
        pool = PoolBuffer.broadcast(layout, np.zeros(p), k, backend="memmap")
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


class TestRowSources:
    """The image and the on-the-fly casts hold the same bits, and over
    the budget the casts cost two rows, not K."""

    def test_refresh_over_the_budget_allocates_under_three_rows(self, rng, monkeypatch):
        """Over the budget a full refresh holds two float64 scratch rows
        (plus a float32 masked copy of one pool row): less than three
        float64 ``p_eff`` rows however large K is."""
        import tracemalloc

        k, p = 8, 40_000
        layout = StateLayout.from_state(
            {"w": np.zeros(p, dtype=np.float32), "b": np.zeros(5, dtype=np.float32)}
        )
        pool = PoolBuffer.broadcast(layout, np.zeros(p + 5), k)
        for i in range(k):
            pool.row(i)[:] = rng.standard_normal(p + 5).astype(np.float32)
        # Budget below this pool's image: the on-the-fly row source.
        monkeypatch.setattr(gram_module, "IMAGE_BUDGET_BYTES", k * p * 8 - 1)
        for keys in (None, {"w"}):
            p_eff = p + 5 if keys is None else p
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                tracker = GramTracker.from_pool(pool, param_keys=keys)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert tracker.dots == k * (k + 1) // 2
            assert peak - base < 3 * p_eff * 8

    @pytest.mark.parametrize("backend", ["dense", "memmap", "sharded"])
    @pytest.mark.parametrize("keys", [None, {"w"}])
    def test_row_sources_read_the_same_bits(self, rng, backend, keys, monkeypatch):
        """An odd ``p_eff`` (1007 unmasked, 1001 masked: image and
        scratch rows start at varying alignments): every read of a two-round landing
        script — a row landing twice, rows completed on read, a release
        — is the same Gram on the image, on the fly and in the eager
        oracle, bit for bit."""
        k = 7
        shapes = {"w": 1001, "b": 6}
        states = [
            [
                {key: rng.standard_normal(n).astype(np.float32) for key, n in shapes.items()}
                for _ in range(k)
            ]
            for _ in range(2)
        ]
        script = [[int(r) for r in rng.permutation(k)][:5] + [2] for _ in range(2)]

        def reads(tracker_cls, budget):
            monkeypatch.setattr(gram_module, "IMAGE_BUDGET_BYTES", budget)
            pool = PoolBuffer.from_states(states[0], dtype=np.float32, backend=backend)
            tracker = tracker_cls(pool, param_keys=keys)
            out = []
            for landed, uploads in zip(script, states):
                for row in landed:
                    pool.set_state(row, uploads[row])
                    tracker.update_row(row)
                    out.append(np.array(tracker.gram))
                tracker.release()
                out.append(np.array(tracker.gram))
            return out

        image = reads(GramTracker, 1 << 40)
        on_the_fly = reads(GramTracker, 0)
        eager = reads(EagerGram, 0)
        assert len(image) == len(on_the_fly) == len(eager) == 2 * 7
        for a, b, c in zip(image, on_the_fly, eager):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)


class _Both:
    """The shipped tracker and the eager oracle on one buffer: a write
    lands once, both are told, and every read compares all K² entries."""

    def __init__(self, pool, keys=None, gram=None):
        self.pool = pool
        self.new = GramTracker(pool, param_keys=keys, gram=gram)
        self.old = EagerGram(pool, param_keys=keys, gram=gram)

    def land(self, row, state=None):
        if state is not None:
            self.pool.set_state(row, state)
        self.new.update_row(row)
        self.old.update_row(row)

    def read(self):
        np.testing.assert_array_equal(self.new.gram, self.old.gram)

    def release(self):
        self.new.release()
        self.old.release()


class TestAgainstEagerOracle:
    """The reported-set tracker's Gram equals the eager schedule's at
    every read, bit for bit, for half the dots."""

    @pytest.mark.parametrize("backend", ["dense", "memmap", "sharded"])
    @pytest.mark.parametrize("keys", [None, {"w"}])
    def test_two_rounds_on_one_buffer_in_random_landing_order(self, rng, backend, keys):
        k = 6
        pool = PoolBuffer.from_states(
            [_upload(rng, np.float32) for _ in range(k)], dtype=np.float32,
            backend=backend,
        )
        both = _Both(pool, keys)
        for round_idx in range(2):
            before = both.new.dots
            for row in rng.permutation(k):
                both.land(int(row), _upload(rng, np.float32))
            both.read()
            assert both.new.dots - before == k * (k + 1) // 2  # not K²
            both.release()
            both.read()  # the final Gram survives the image
        assert both.new.updates == 2 * k
        assert both.old.dots == 2 * k * k

    def test_row_landing_twice(self, rng):
        """A retry / redispatch rewrites a landed row: it is dotted again
        against what has landed, and nothing more."""
        pool = make_pool(k=5, rng=rng, dtype=np.float32)
        both = _Both(pool)
        for row in (3, 0, 3, 4):
            both.land(row, _upload(rng, np.float32))
        assert both.new.dots == 1 + 2 + 2 + 3
        both.read()
        for row in (1, 2, 0):
            both.land(row, _upload(rng, np.float32))
        both.read()

    def test_read_mid_round_completes_then_more_landings(self, rng):
        """Rows 1 and 4 are never reported before the first read: the
        read dots them (cast on demand) against what landed; landings
        after it are completed by the second read."""
        k = 6
        seeded = rng.standard_normal((k, k))
        pool = make_pool(k=k, rng=rng, dtype=np.float32)
        both = _Both(pool, gram=seeded + seeded.T)
        for row in (2, 5, 0):
            both.land(row, _upload(rng, np.float32))
        assert both.new.dots == 1 + 2 + 3
        both.read()
        assert both.new.dots == 6 + 3 * 3  # (landed) × (1, 3, 4)
        both.read()
        assert both.new.dots == 15, "nothing reported in between: no dot"
        # Pairs nobody reported keep the values the tracker was born with.
        assert both.new.gram[1, 4] == (seeded + seeded.T)[1, 4]
        both.land(3, _upload(rng, np.float32))  # against 2, 5, 0 and itself
        both.land(2, _upload(rng, np.float32))  # again: against 5, 0, 3 and itself
        assert both.new.dots == 15 + 4 + 4
        both.read()
        assert both.new.dots == 23 + 2 * 2  # rows 3 and 2 × the never-reported 1, 4
        both.land(1, _upload(rng, np.float32))
        both.land(4, _upload(rng, np.float32))
        both.read()
        assert both.new.dots == 27 + 5 + 6

    def test_quarantine_after_a_full_read_costs_k_dots(self, rng):
        k = 5
        dispatched = [_upload(rng, np.float32) for _ in range(k)]
        pool = PoolBuffer.from_states(dispatched, dtype=np.float32)
        both = _Both(pool, keys={"w"})
        for row in rng.permutation(k):
            both.land(int(row), _upload(rng, np.float32))
        both.read()  # the screen scores this Gram ...
        clean = both.new.dots
        assert clean == k * (k + 1) // 2
        for n, row in enumerate((3, 1), start=1):  # ... and carries two rows
            both.land(row, dispatched[row])
            assert both.new.dots == clean + n * k
        both.read()
        assert both.new.dots == clean + 2 * k

    @pytest.mark.parametrize("keys", [None, {"b"}])
    def test_refresh_is_triangular(self, rng, keys):
        k = 7
        pool = make_pool(k=k, rng=rng, dtype=np.float32)
        both = _Both(pool, keys)
        both.new.refresh()
        both.old.refresh()
        both.read()
        assert both.new.dots == k * (k + 1) // 2
        assert both.new._image is None and not both.new._reported.any()
        # A warm image and a row reported before it change no bit.
        both.land(2, _upload(rng, np.float32))
        both.pool.set_state(5, _upload(rng, np.float32))  # unreported: refresh's job
        both.new.refresh()
        both.old.refresh()
        both.read()


def _loop_select_among(tracker, index, candidates, highest):
    """``select_among`` as it was: a scan of ``similarity()[index]``."""
    sims = tracker.similarity()[index]
    best, best_sim = None, 0.0
    for j in sorted(int(c) for c in candidates):
        if j == index:
            continue
        s = float(sims[j])
        if best is None or (s > best_sim if highest else s < best_sim):
            best, best_sim = j, s
    return best


class TestSelectAmong:
    """The speculative selector reads one row of the landed block."""

    @pytest.mark.parametrize("highest", [True, False])
    def test_picks_what_the_full_cosine_row_picked(self, rng, highest):
        pool = make_pool(k=7, rng=rng)
        for _ in range(20):
            a = rng.standard_normal((7, 9))
            tracker = GramTracker(pool, gram=a @ a.T)
            index = int(rng.integers(7))
            candidates = [int(c) for c in rng.permutation(7)[: int(rng.integers(1, 7))]]
            assert tracker.select_among(index, candidates, highest) == (
                _loop_select_among(tracker, index, candidates, highest)
            )

    @pytest.mark.parametrize("highest", [True, False])
    def test_ties_resolve_to_the_lowest_index(self, rng, highest):
        v = rng.standard_normal(9)
        # Scaling by two is exact, so rows 1, 2, 4 tie bit for bit.
        a = np.stack([v, 2 * v, 2 * v, rng.standard_normal(9), 2 * v])
        tracker = GramTracker(make_pool(k=5, rng=rng), gram=a @ a.T)
        sims = tracker.similarity()[0]
        assert sims[1] == sims[2] == sims[4]
        assert tracker.select_among(0, [4, 2, 1], highest) == 1
        assert _loop_select_among(tracker, 0, [4, 2, 1], highest) == 1
        assert tracker.select_among(0, [4, 2], highest) == 2

    def test_zero_norm_rows_score_zero(self, rng):
        a = rng.standard_normal((4, 6))
        a[1] = 0.0
        a[3] = -a[0]
        tracker = GramTracker(make_pool(k=4, rng=rng), gram=a @ a.T)
        # cos(0, 3) = -1 < cos(0, 1) := 0: the zero row is the *highest*.
        assert tracker.select_among(0, [1, 3], highest=True) == 1
        assert tracker.select_among(0, [1, 3], highest=False) == 3
        # A zero-norm asker ties everything at 0: lowest index.
        assert tracker.select_among(1, [3, 2, 0], highest=True) == 0
        for highest in (True, False):
            for index in range(4):
                cands = [c for c in range(4) if c != index]
                assert tracker.select_among(index, cands, highest) == (
                    _loop_select_among(tracker, index, cands, highest)
                )

    def test_empty_candidates_and_self_only(self, rng):
        tracker = GramTracker.from_pool(make_pool(k=3, rng=rng))
        assert tracker.select_among(0, []) is None
        assert tracker.select_among(2, [2]) is None

    def test_reads_the_landed_block_without_completing(self, rng):
        k = 6
        pool = make_pool(k=k, rng=rng, dtype=np.float32)
        both = _Both(pool)
        for row in (4, 1, 3):
            both.land(row, _upload(rng, np.float32))
        before = both.new.dots
        assert before == 6
        got = both.new.select_among(4, {1, 3}, highest=False)
        assert both.new.dots == before and both.new._incomplete.any()
        sims = cosine_from_gram(both.old.gram)[4]
        assert got == (1 if sims[1] <= sims[3] else 3)
