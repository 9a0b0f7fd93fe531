"""Hypothesis tests: the incremental Gram engine (ISSUE 4).

Three guarantees, matching the tolerances documented in
:mod:`repro.core.gram`:

(a) a tracker refreshed row by row — in *any* update order — matches a
    plain float64 ``V @ V.T`` within ulp tolerance, and the
    fully refreshed Gram itself is **bitwise** independent of update
    order and of the row source (image or on-the-fly casts; the
    property that keeps streamed and gathered collect schedules
    bit-identical) — and a tracker kept across rounds, fed
    ``update_row`` after every row write, equals a from-scratch one
    bit for bit (the float64-image contract);
(b) the closed-form post-CrossAggr transform matches a direct Gram
    recompute on the new pool within the blend-rounding tolerance
    (both 1-D collaborator vectors and 2-D propeller matrices);
(c) at every read — mid-round, after a release, after a row landed
    twice — the Gram equals the one the *eager* schedule (each landing
    dotted against all K rows, ``tests/core/_eager_gram.py``) holds,
    bit for bit.

Streamed-vs-gathered collect equivalence for full FL rounds lives in
``tests/fl/test_streaming.py`` (all seven methods, per backend).
"""

import os
import sys
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import gram as gram_module
from repro.core.gram import GramTracker, cosine_from_gram
from repro.core.pool import PoolBuffer

# The eager schedule (K dots a landing), the oracle of TestEagerOracle,
# and the plain float64 Gram of a pool.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "core"))
from _eager_gram import EagerGram  # noqa: E402
from _selection_oracle import reference_gram  # noqa: E402

finite = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False, width=32
)
alphas = st.floats(min_value=0.01, max_value=0.99)
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


def _tol(reference: np.ndarray) -> dict:
    """rtol plus a norm-scaled atol — near-orthogonal rows make raw
    Gram entries cancel, so pure rtol would demand the impossible."""
    scale = float(np.abs(reference).max()) or 1.0
    return {"rtol": 1e-9, "atol": 1e-9 * scale}


class TestIncrementalMatchesFresh:
    @given(pool=pools(), keys=masks, order_seed=st.integers(0, 1_000))
    @settings(max_examples=60, deadline=None)
    def test_any_update_order_matches_fresh_similarity(self, pool, keys, order_seed):
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        tracker = GramTracker(buf, param_keys=keys)
        order = np.random.default_rng(order_seed).permutation(len(buf))
        for i in order:
            tracker.update_row(int(i))
        fresh_gram = reference_gram(buf, keys)
        np.testing.assert_allclose(tracker.gram, fresh_gram, **_tol(fresh_gram))
        np.testing.assert_allclose(
            tracker.similarity(), cosine_from_gram(fresh_gram), rtol=1e-9, atol=1e-9
        )

    @given(pool=pools(), keys=masks, seed_a=st.integers(0, 500), seed_b=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_update_order_bitwise_irrelevant(self, pool, keys, seed_a, seed_b):
        """In any order, on either row source — the float64 image, or
        (budget 0) two scratch rows cast per dot — the same bits."""
        buf = PoolBuffer.from_states(pool, dtype=np.float64)

        def refreshed(seed, budget):
            with mock.patch.object(gram_module, "IMAGE_BUDGET_BYTES", budget):
                tracker = GramTracker(buf, param_keys=keys)
                for i in np.random.default_rng(seed).permutation(len(buf)):
                    tracker.update_row(int(i))
                return tracker.gram

        image = gram_module.IMAGE_BUDGET_BYTES
        first = refreshed(seed_a, image)
        for seed, budget in ((seed_b, image), (seed_a, 0), (seed_b, 0)):
            np.testing.assert_array_equal(refreshed(seed, budget), first)

    @given(
        pool=pools(min_k=3),
        keys=masks,
        backend=st.sampled_from(["dense", "memmap", "sharded"]),
        rounds=st.integers(3, 5),
        seed=st.integers(0, 1_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_persistent_tracker_bitwise_equals_fresh_each_round(
        self, pool, keys, backend, rounds, seed
    ):
        """The float64-image contract: one tracker kept across rounds —
        rows rewritten in random order (new upload, or carried: the
        state the row held at dispatch), one landed row quarantined
        mid-round, each write followed by ``update_row``, the image
        released or kept between rounds at random — equals a from-scratch
        tracker on the same buffer bit for bit after every round."""
        rng = np.random.default_rng(seed)
        buf = PoolBuffer.from_states(pool, dtype=np.float32, backend=backend)
        k = len(buf)
        tracker = GramTracker(buf, param_keys=keys)
        for _ in range(rounds):
            dispatched = buf.states(copy=True)
            order = [int(i) for i in rng.permutation(k)]
            quarantined, when = order[0], int(rng.integers(1, k))
            for n, row in enumerate(order):
                if rng.random() < 0.3:  # carried leg
                    buf.set_state(row, dispatched[row])
                else:
                    buf.row(row)[:] = rng.standard_normal(buf.num_scalars)
                tracker.update_row(row)
                if n == when:
                    buf.set_state(quarantined, dispatched[quarantined])
                    tracker.update_row(quarantined)
            fresh = GramTracker.from_pool(buf, param_keys=keys)
            np.testing.assert_array_equal(tracker.gram, fresh.gram)
            if rng.random() < 0.5:
                tracker.release()

    @given(pool=pools(), keys=masks)
    @settings(max_examples=30, deadline=None)
    def test_float32_pool_tracks_within_roundtrip(self, pool, keys):
        """The server's storage dtype: tracker and fresh recompute read
        the same float32 rows, so they still agree to float64 ulps."""
        pool32 = [
            {k: v.astype(np.float32) for k, v in state.items()} for state in pool
        ]
        buf = PoolBuffer.from_states(pool32, dtype=np.float32)
        tracker = GramTracker.from_pool(buf, param_keys=keys)
        fresh_gram = reference_gram(buf, keys)
        np.testing.assert_allclose(tracker.gram, fresh_gram, **_tol(fresh_gram))


class TestEagerOracle:
    @given(
        pool=pools(min_k=3),
        keys=masks,
        backend=st.sampled_from(["dense", "memmap", "sharded"]),
        script=st.lists(
            st.one_of(st.integers(0, 5), st.sampled_from(["read", "release"])),
            min_size=4, max_size=24,
        ),
        seed=st.integers(0, 1_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_script_reads_the_eager_gram(self, pool, keys, backend, script, seed):
        """Landings in any order (a row may land twice, or never),
        reads mid-round and ``release`` anywhere: at every read the
        reported-set tracker holds the eager schedule's bits, having
        made no more dots than it."""
        rng = np.random.default_rng(seed)
        buf = PoolBuffer.from_states(pool, dtype=np.float32, backend=backend)
        k = len(buf)
        new = GramTracker(buf, param_keys=keys)
        old = EagerGram(buf, param_keys=keys)
        for step in script + ["read"]:
            if step == "read":
                np.testing.assert_array_equal(new.gram, old.gram)
                assert new.dots <= old.dots
            elif step == "release":
                new.release()
                old.release()
            else:
                row = step % k
                buf.row(row)[:] = rng.standard_normal(buf.num_scalars)
                new.update_row(row)
                old.update_row(row)


class TestClosedFormCrossAggregate:
    @given(pool=pools(), keys=masks, alpha=alphas, r=st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_recompute(self, pool, keys, alpha, r):
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        k = len(buf)
        co = np.array([(i + (r % (k - 1) + 1)) % k for i in range(k)])
        tracker = GramTracker.from_pool(buf, param_keys=keys)
        new_pool = buf.cross_aggregate(co, alpha)
        got = tracker.cross_aggregated(co, alpha, pool=new_pool)
        ref = GramTracker.from_pool(new_pool, param_keys=keys)
        np.testing.assert_allclose(got.gram, ref.gram, **_tol(ref.gram))

    @given(pool=pools(min_k=3), keys=masks, alpha=alphas)
    @settings(max_examples=40, deadline=None)
    def test_propeller_closed_form_matches_recompute(self, pool, keys, alpha):
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        k = len(buf)
        props = np.array([[(i + 1) % k, (i + 2) % k] for i in range(k)])
        tracker = GramTracker.from_pool(buf, param_keys=keys)
        new_pool = buf.cross_aggregate(props, alpha)
        got = tracker.cross_aggregated(props, alpha, pool=new_pool)
        ref = GramTracker.from_pool(new_pool, param_keys=keys)
        np.testing.assert_allclose(got.gram, ref.gram, **_tol(ref.gram))

    @given(pool=pools(), keys=masks, alpha=alphas, rounds=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_chained_transforms_stay_consistent(self, pool, keys, alpha, rounds):
        """Several closed-form rounds in sequence (no re-reads at all)
        still track a per-round recompute — the accumulated error stays
        within the same documented tolerance class."""
        buf = PoolBuffer.from_states(pool, dtype=np.float64)
        k = len(buf)
        tracker = GramTracker.from_pool(buf, param_keys=keys)
        for r in range(rounds):
            co = np.array([(i + (r % (k - 1) + 1)) % k for i in range(k)])
            buf = buf.cross_aggregate(co, alpha)
            tracker = tracker.cross_aggregated(co, alpha, pool=buf)
        ref = GramTracker.from_pool(buf, param_keys=keys)
        scale = float(np.abs(ref.gram).max()) or 1.0
        np.testing.assert_allclose(
            tracker.gram, ref.gram, rtol=1e-8, atol=1e-8 * scale
        )

