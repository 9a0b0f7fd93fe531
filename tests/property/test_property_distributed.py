"""Hypothesis properties: distributed storage vs sharded, under random
host fleets and row counts.

The distributed backend's contract (ISSUE 7): for *any* host count
(including 1, and more hosts than rows) the coordinator-side proxy is
**bit-identical** to the in-process ``sharded`` backend — rows cross
the sockets as raw buffer-dtype bytes, every reduction runs the exact
single-node kernel shard-locally, and the engine's ops
(``cross_aggregate``, both ``mean_state`` modes, the incremental
:class:`~repro.core.gram.GramTracker`) never see the difference.

Host fleets are pooled per count, so the whole module reuses at most
three warm fleets (1–3 localhost worker processes).
"""

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

MAX_HOSTS = 3


@st.composite
def pools_with_fleet(draw, min_k=2, max_k=6):
    """(states, host count, shard count for the reference layout)."""
    k = draw(st.integers(min_k, max_k))
    states = [
        {
            key: draw(hnp.arrays(np.float32, shape, elements=finite))
            for key, shape in KEYS.items()
        }
        for _ in range(k)
    ]
    hosts = draw(st.integers(1, MAX_HOSTS))
    shards = draw(st.integers(1, k))
    return states, hosts, shards


def _pair(states, hosts, shards):
    sharded = PoolBuffer.from_states(
        states, backend="sharded", backend_options={"shards": shards}
    )
    distributed = PoolBuffer.from_states(
        states, backend="distributed", backend_options={"hosts": hosts}
    )
    return sharded, distributed


class TestDistributedBitIdentity:
    @given(data=pools_with_fleet(), alpha=alphas)
    @settings(max_examples=15, deadline=None)
    def test_cross_aggregate_bit_identical(self, data, alpha):
        states, hosts, shards = data
        sharded, distributed = _pair(states, hosts, shards)
        k = len(states)
        rng = np.random.default_rng(k * 31 + hosts)
        co = rng.integers(0, k, size=k)
        ref = sharded.cross_aggregate(co, alpha)
        got = distributed.cross_aggregate(co, alpha)
        assert got.backend == "distributed"
        assert got.storage.num_hosts == hosts
        np.testing.assert_array_equal(np.asarray(got.matrix), np.asarray(ref.matrix))

    @given(data=pools_with_fleet(), precise=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_mean_state_bit_identical(self, data, precise):
        states, hosts, shards = data
        sharded, distributed = _pair(states, hosts, shards)
        k = len(states)
        weights = [float(w) for w in range(1, k + 1)]
        ref = sharded.mean_state(weights, precise=precise)
        got = distributed.mean_state(weights, precise=precise)
        np.testing.assert_array_equal(got, ref)

    @given(data=pools_with_fleet(), keys=st.sampled_from([None, ("w",)]))
    @settings(max_examples=15, deadline=None)
    def test_tracker_gram_bitwise_identical(self, data, keys):
        """The tracker's masked-dot fan-out to the hosts must assemble
        the exact Gram row the in-process shard loop produces — this is
        what keeps whole distributed fits bit-identical."""
        states, hosts, shards = data
        sharded, distributed = _pair(states, hosts, shards)
        param_keys = set(keys) if keys is not None else None
        ref = GramTracker.from_pool(sharded, param_keys=param_keys)
        got = GramTracker.from_pool(distributed, param_keys=param_keys)
        np.testing.assert_array_equal(got.gram, ref.gram)

    @given(data=pools_with_fleet())
    @settings(max_examples=10, deadline=None)
    def test_state_roundtrip_and_row_block_gather(self, data):
        states, hosts, _ = data
        distributed = PoolBuffer.from_states(
            states, backend="distributed", backend_options={"hosts": hosts}
        )
        k = len(states)
        for i, state in enumerate(states):
            back = distributed.as_state(i)
            for key in state:
                np.testing.assert_array_equal(back[key], state[key])
        whole = distributed.storage.row_block(0, k)
        np.testing.assert_array_equal(whole, np.asarray(distributed.matrix))
