"""Hypothesis properties: sharded storage vs dense, under random
shard layouts and block budgets.

The sharded backend's contract (ISSUE 5): for *any* shard count
(including the degenerate 1 and the maximal K) and *any*
``REPRO_POOL_BLOCK_BYTES`` budget,

* ``cross_aggregate`` (single-collaborator and propeller forms) and
  both ``mean_state`` modes are **bit-identical** to dense under the
  same budget (elementwise blends are partition-invariant; the
  reductions partition rows purely by the budget, never the shard
  layout);
* the blocked ``gram_matrix`` and the incrementally maintained
  :class:`~repro.core.gram.GramTracker` Gram are ulp-tight against
  dense (``GramTracker.update_row`` is in fact bitwise
  backend-independent for every shard count — asserted exactly);
* round-tripping rows through shards (``set_state`` → ``as_state``,
  ``row_block`` gathers) loses nothing.
"""

import contextlib
import os

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.gram import GramTracker
from repro.core.pool import PoolBuffer

finite = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False, width=32
)
alphas = st.floats(min_value=0.01, max_value=0.99)

KEYS = {"w": (4, 3), "b": (5,)}
P = 17  # total scalars of KEYS


@contextlib.contextmanager
def _budget(budget: int):
    """Pin ``REPRO_POOL_BLOCK_BYTES`` for one op pair (save/restore)."""
    previous = os.environ.get("REPRO_POOL_BLOCK_BYTES")
    os.environ["REPRO_POOL_BLOCK_BYTES"] = str(budget)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_POOL_BLOCK_BYTES", None)
        else:
            os.environ["REPRO_POOL_BLOCK_BYTES"] = previous

@st.composite
def pools_with_layout(draw, min_k=2, max_k=8):
    """(states, shard count, placement, block budget in bytes)."""
    k = draw(st.integers(min_k, max_k))
    states = [
        {
            key: draw(hnp.arrays(np.float32, shape, elements=finite))
            for key, shape in KEYS.items()
        }
        for _ in range(k)
    ]
    shards = draw(st.integers(1, k))
    placement = draw(st.sampled_from(["dense", "memmap"]))
    # From "every op single-block" down to "one row (or less) per
    # block" — 8 bytes is below even one float64 scalar's row share.
    budget = draw(st.sampled_from([8, 64, 200, 1 << 10, 1 << 20]))
    return states, shards, placement, budget


def _pair(states, shards, placement):
    dense = PoolBuffer.from_states(states, backend="dense")
    sharded = PoolBuffer.from_states(
        states,
        backend="sharded",
        backend_options={"shards": shards, "placement": placement},
    )
    return dense, sharded


class TestShardedBitIdentity:
    @given(data=pools_with_layout(), alpha=alphas)
    @settings(max_examples=40, deadline=None)
    def test_cross_aggregate_bit_identical(self, data, alpha):
        states, shards, placement, budget = data
        dense, sharded = _pair(states, shards, placement)
        k = len(states)
        rng = np.random.default_rng(k * 31 + shards)
        co = rng.integers(0, k, size=k)
        with _budget(budget):
            ref = dense.cross_aggregate(co, alpha)
            got = sharded.cross_aggregate(co, alpha)
        assert got.backend == "sharded"
        assert got.storage.num_shards == sharded.storage.num_shards
        np.testing.assert_array_equal(np.asarray(got.matrix), ref.matrix)

    @given(data=pools_with_layout(min_k=3), alpha=alphas)
    @settings(max_examples=25, deadline=None)
    def test_propeller_cross_aggregate_bit_identical(
        self, data, alpha
    ):
        states, shards, placement, budget = data
        dense, sharded = _pair(states, shards, placement)
        k = len(states)
        groups = np.stack([(np.arange(k) + 1) % k, (np.arange(k) + 2) % k], axis=1)
        with _budget(budget):
            ref = dense.cross_aggregate(groups, alpha)
            got = sharded.cross_aggregate(groups, alpha)
        np.testing.assert_array_equal(np.asarray(got.matrix), ref.matrix)

    @given(data=pools_with_layout(), precise=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_mean_state_bit_identical(self, data, precise):
        states, shards, placement, budget = data
        dense, sharded = _pair(states, shards, placement)
        k = len(states)
        weights = [float(w) for w in range(1, k + 1)]
        with _budget(budget):
            ref = dense.mean_state(weights, precise=precise)
            got = sharded.mean_state(weights, precise=precise)
        np.testing.assert_array_equal(got, ref)

    @given(data=pools_with_layout(), keys=st.sampled_from([None, ("w",)]))
    @settings(max_examples=40, deadline=None)
    def test_gram_ulp_tight_vs_dense(self, data, keys):
        states, shards, placement, budget = data
        dense, sharded = _pair(states, shards, placement)
        param_keys = set(keys) if keys is not None else None
        with _budget(budget):
            ref = dense.gram_matrix(param_keys=param_keys)
            got = sharded.gram_matrix(param_keys=param_keys)
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref))) + 1e-30
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=float(1e-12 * scale.max()))

    @given(
        data=pools_with_layout(),
        keys=st.sampled_from([None, ("w",)]),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_tracker_update_row_bitwise_for_every_shard_count(
        self, data, keys, order
    ):
        """``update_row`` on a sharded pool equals dense bit for bit —
        after *each* update, in any update order, for every shard count
        from 1 to K.  The per-pair contiguous float64 dots must not even
        move an ulp across shard layouts: this is what keeps whole fits
        bit-identical across backends."""
        states, _, placement, _ = data
        k = len(states)
        param_keys = set(keys) if keys is not None else None
        sequence = list(range(k))
        order.shuffle(sequence)
        for shards in range(1, k + 1):
            dense, sharded = _pair(states, shards, placement)
            ref = GramTracker(dense, param_keys=param_keys)
            got = GramTracker(sharded, param_keys=param_keys)
            for i in sequence:
                ref.update_row(i)
                got.update_row(i)
                np.testing.assert_array_equal(got.gram, ref.gram)
            fresh = GramTracker.from_pool(sharded, param_keys=param_keys)
            np.testing.assert_array_equal(fresh.gram, ref.gram)

    @given(data=pools_with_layout())
    @settings(max_examples=25, deadline=None)
    def test_state_roundtrip_and_row_block_gather(self, data):
        states, shards, placement, _ = data
        _, sharded = _pair(states, shards, placement)
        k = len(states)
        for i, state in enumerate(states):
            back = sharded.as_state(i)
            for key in state:
                np.testing.assert_array_equal(back[key], state[key])
        whole = sharded.storage.row_block(0, k)
        np.testing.assert_array_equal(whole, np.asarray(sharded.matrix))
