"""DistributedStorage ops vs dense, over two real localhost hosts.

Every row-protocol op of the ``distributed`` backend must be bitwise
equivalent to the same op on a dense in-process matrix — rows cross
the socket as raw buffer-dtype bytes and the hosts run the exact
single-node kernels.  The cluster is the pooled 2-host fleet, so the
whole module shares two warm worker processes.
"""

import numpy as np
import pytest

from repro.core.pool import PoolBuffer
from repro.core.storage import POOL_BACKENDS
from repro.distributed.cluster import get_cluster
from repro.distributed.storage import DistributedStorage

K, P = 5, 7


@pytest.fixture(scope="module")
def cluster():
    return get_cluster(2)


@pytest.fixture()
def reference():
    return np.arange(K * P, dtype=np.float32).reshape(K, P) / 3.0


@pytest.fixture()
def storage(cluster, reference):
    return DistributedStorage.from_array(reference, cluster=cluster)


class TestRegistry:
    def test_registered_and_lazily_resolvable(self):
        assert "distributed" in POOL_BACKENDS.available()
        assert POOL_BACKENDS.resolve("distributed") is DistributedStorage
        assert DistributedStorage.name == "distributed"

    def test_pool_buffer_construction_with_hosts_option(self, reference):
        states = [{"w": reference[i]} for i in range(K)]
        pool = PoolBuffer.from_states(
            states, backend="distributed", backend_options={"hosts": 2}
        )
        assert pool.backend == "distributed"
        assert pool.storage.num_hosts == 2
        np.testing.assert_array_equal(np.asarray(pool.matrix), reference)

    def test_explicit_cluster_and_hosts_must_agree(self, cluster):
        with pytest.raises(ValueError, match="hosts=3"):
            DistributedStorage.allocate((K, P), hosts=3, cluster=cluster)

    def test_unknown_options_rejected(self, cluster):
        with pytest.raises(ValueError):
            DistributedStorage.allocate((K, P), cluster=cluster, shards=3)


class TestLayout:
    def test_spans_tile_the_pool(self, storage):
        assert storage.shard_boundaries() == (0, 2, 5)
        assert storage.host_spans() == [(0, 2), (2, 5)]
        assert storage.shape == (K, P)
        assert storage.dtype == np.float32

    def test_owner_of(self, storage):
        assert storage.owner_of(0) == (0, 0)
        assert storage.owner_of(1) == (0, 1)
        assert storage.owner_of(2) == (1, 0)
        assert storage.owner_of(4) == (1, 2)
        with pytest.raises(IndexError):
            storage.owner_of(K)

    def test_empty_spans_allowed(self, cluster):
        # K=1 over 2 hosts: host 1 owns an empty shard; ops still work.
        row = np.ones((1, P), dtype=np.float32)
        storage = DistributedStorage.from_array(row, cluster=cluster)
        np.testing.assert_array_equal(storage.row_block(0, 1), row)


class TestRowProtocol:
    def test_array_gathers_bitwise(self, storage, reference):
        gathered = storage.array
        np.testing.assert_array_equal(gathered, reference)
        assert not gathered.flags.writeable

    def test_row_is_readonly_fetched_copy(self, storage, reference):
        row = storage.row(3)
        np.testing.assert_array_equal(row, reference[3])
        assert not row.flags.writeable

    def test_row_block_within_and_across_hosts(self, storage, reference):
        for start, stop in [(0, 2), (3, 5), (1, 4), (0, K), (2, 2)]:
            np.testing.assert_array_equal(
                storage.row_block(start, stop), reference[start:stop]
            )

    def test_write_rows_across_host_boundary(self, storage, reference):
        update = -np.ones((3, P), dtype=np.float32)
        storage.write_rows(1, update)  # rows 1..3 span hosts 0 and 1
        expected = reference.copy()
        expected[1:4] = update
        np.testing.assert_array_equal(storage.array, expected)

    def test_gather_rows_preserves_request_order(self, storage, reference):
        indices = np.array([4, 0, 3, 0, 2])
        np.testing.assert_array_equal(
            storage.gather_rows(indices), reference[indices]
        )

    def test_fill_rows_broadcast(self, storage):
        fill = np.linspace(0, 1, P, dtype=np.float32)
        storage.fill_rows(fill)
        np.testing.assert_array_equal(
            storage.array, np.tile(fill, (K, 1))
        )

    def test_open_commit_row_stages_one_rpc_write(self, storage, reference):
        staged = storage.open_row(1)
        assert staged.shape == (P,) and staged.dtype == np.float32
        staged[:] = 9.0
        storage.commit_row(1, staged)
        expected = reference.copy()
        expected[1] = 9.0
        np.testing.assert_array_equal(storage.array, expected)

    def test_clone_is_independent(self, storage, reference):
        clone = storage.clone()
        assert clone.buffer_id != storage.buffer_id
        storage.write_rows(0, np.zeros((1, P), dtype=np.float32))
        np.testing.assert_array_equal(clone.array, reference)

    def test_allocate_like_reuses_cluster(self, storage):
        other = storage.allocate_like((2, 4), dtype=np.float64)
        assert other.cluster is storage.cluster
        assert other.shape == (2, 4)
        assert other.dtype == np.float64
        other.fill_rows(np.ones(4))
        np.testing.assert_array_equal(other.array, np.ones((2, 4)))


class TestGramRows:
    """``gram_rows`` (the successor of the per-vector ``masked_dots``
    fan-out) against the tracker's local kernel."""

    def _local_dots(self, reference, rows, mask):
        def vec(j):
            row = reference[j][mask] if mask is not None else reference[j]
            return np.ascontiguousarray(row, dtype=np.float64)

        return np.array([[np.dot(vec(i), vec(j)) for j in range(K)] for i in rows])

    def test_unmasked_bitwise_equal_to_local_kernel(self, storage, reference):
        np.testing.assert_array_equal(
            storage.gram_rows(np.array([1]), None),
            self._local_dots(reference, [1], None),
        )

    def test_masked_bitwise_equal_to_local_kernel(self, storage, reference):
        mask = np.zeros(P, dtype=bool)
        mask[[0, 2, 5]] = True
        np.testing.assert_array_equal(
            storage.gram_rows(np.array([4]), mask),
            self._local_dots(reference, [4], mask),
        )

    @pytest.mark.parametrize("rows", [[0, 1, 2, 3, 4], [0, 3], [2, 3, 4], [1, 2, 4]])
    def test_row_sets_covering_or_straddling_hosts(self, storage, reference, rows):
        # Spans are (0, 2) and (2, 5): whole pool, one row per host, one
        # host covered and the other not, and a partial set on both —
        # each takes a different exchange plan, all the same bits.
        np.testing.assert_array_equal(
            storage.gram_rows(np.array(rows), None),
            self._local_dots(reference, rows, None),
        )

    def test_mask_registered_once_per_content(self, storage):
        mask = np.ones(P, dtype=bool)
        first = storage.cluster.ensure_mask(mask)
        second = storage.cluster.ensure_mask(mask.copy())
        assert first == second


class TestMemmapPlacement:
    def test_hosts_keep_shards_on_disk(self, cluster, reference):
        storage = DistributedStorage.from_array(
            reference, cluster=cluster, placement="memmap"
        )
        assert storage.placement == "memmap"
        np.testing.assert_array_equal(storage.array, reference)
        like = storage.allocate_like((K, P))
        assert like.placement == "memmap"
