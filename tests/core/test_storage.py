"""Pool storage backends: registry, memmap lifecycle, sharded layout,
and op-level dense equivalence.

End-to-end (full fit) backend equivalence lives in the cross-backend
matrix suite, ``tests/integration/test_backend_matrix.py``.
"""

import gc
import os

import numpy as np
import pytest

from repro.core.pool import PoolBuffer
from repro.core.storage import (
    DenseStorage,
    MemmapStorage,
    POOL_BACKENDS,
    PoolStorage,
    ShardedStorage,
    available_backends,
    register_backend,
    resolve_backend,
)
from repro.utils.layout import StateLayout


def make_state(rng, with_int=False):
    state = {
        "b.weight": rng.standard_normal((3, 2)).astype(np.float32),
        "a.bias": rng.standard_normal(4).astype(np.float32),
    }
    if with_int:
        state["c.steps"] = np.array([7], dtype=np.int64)
    return state


# backend -> options used by the op-equivalence parametrization
NON_DENSE = {
    "memmap": {},
    "sharded": {"shards": 3},
}


class TestBackendRegistry:
    def test_builtin_backends_present(self):
        assert available_backends() == ["dense", "distributed", "memmap", "sharded"]

    def test_resolve_is_case_insensitive(self):
        assert resolve_backend("DENSE") is DenseStorage
        assert resolve_backend("memmap") is MemmapStorage
        assert resolve_backend("Sharded") is ShardedStorage

    def test_unknown_backend_raises_value_error_with_available_list(self):
        """--backend typos must fail with the fix in the message: a
        ValueError naming every registered backend, not a bare KeyError."""
        with pytest.raises(ValueError, match="unknown pool backend"):
            resolve_backend("gpu")
        try:
            resolve_backend("gpu")
        except ValueError as exc:
            message = str(exc)
            assert "dense" in message and "memmap" in message
            assert "sharded" in message

    def test_duplicate_backend_rejected(self):
        with pytest.raises(KeyError, match="already registered"):

            @register_backend("dense")
            class Dup(PoolStorage):
                pass

    def test_third_party_backend_pluggable(self, rng):
        @register_backend("test_only")
        class TestOnly(DenseStorage):
            pass

        try:
            buf = PoolBuffer.from_states(
                [make_state(rng)], backend="test_only"
            )
            assert buf.backend == "test_only"
        finally:
            del POOL_BACKENDS["test_only"]

    def test_single_medium_backends_reject_options(self):
        with pytest.raises(ValueError, match="accepts no storage options"):
            DenseStorage.allocate((2, 4), shards=3)
        with pytest.raises(ValueError, match="accepts no storage options"):
            MemmapStorage.allocate((2, 4), shards=3)


class TestMemmapLifecycle:
    def test_backing_file_created_and_cleaned_up(self):
        storage = MemmapStorage.allocate((2, 8), dtype=np.float32)
        path = storage.path
        assert os.path.exists(path)
        storage.array[:] = 1.5
        storage.flush()
        del storage
        gc.collect()
        assert not os.path.exists(path)

    def test_respects_memmap_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MEMMAP_DIR", str(tmp_path))
        storage = MemmapStorage.allocate((2, 4))
        assert os.path.dirname(storage.path) == str(tmp_path)

    def test_clone_is_independent(self):
        storage = MemmapStorage.allocate((2, 4), dtype=np.float64)
        storage.array[:] = 3.0
        clone = storage.clone()
        assert clone.path != storage.path
        storage.array[:] = -1.0
        np.testing.assert_array_equal(clone.array, np.full((2, 4), 3.0))


class TestShardedLayout:
    def test_even_contiguous_boundaries(self):
        storage = ShardedStorage.allocate((7, 4), shards=3)
        assert storage.num_shards == 3
        assert storage.shard_boundaries() == (0, 2, 5, 7)
        assert [b1 - b0 for b0, b1 in storage.shard_spans()] == [2, 3, 2]
        assert storage.shape == (7, 4)

    def test_shard_count_clamped_to_rows(self):
        assert ShardedStorage.allocate((3, 2), shards=10).num_shards == 3
        assert ShardedStorage.allocate((3, 2), shards=1).num_shards == 1

    def test_env_default_shard_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_SHARDS", "2")
        assert ShardedStorage.allocate((8, 2)).num_shards == 2
        monkeypatch.delenv("REPRO_POOL_SHARDS")
        assert ShardedStorage.allocate((8, 2)).num_shards == 4

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ShardedStorage.allocate((4, 2), shards=0)
        with pytest.raises(ValueError, match="cannot itself be 'sharded'"):
            ShardedStorage.allocate((4, 2), placement="sharded")
        with pytest.raises(ValueError, match="unknown pool backend"):
            ShardedStorage.allocate((4, 2), placement="gpu")

    def test_row_is_writable_view_into_owning_shard(self):
        storage = ShardedStorage.allocate((6, 3), shards=3)
        storage.row(4)[:] = 2.5
        shard = storage.shards[2]  # rows 4-5
        np.testing.assert_array_equal(shard.array[0], np.full(3, 2.5))

    def test_row_block_shard_local_is_view_cross_shard_is_copy(self):
        storage = ShardedStorage.from_array(
            np.arange(24, dtype=np.float32).reshape(8, 3), shards=4
        )
        local = storage.row_block(2, 4)  # shard 1 exactly
        assert local.base is storage.shards[1].array or local is storage.shards[1].array
        crossing = storage.row_block(1, 5)
        assert crossing.base is None  # gathered copy
        np.testing.assert_array_equal(
            crossing, np.arange(3, 15, dtype=np.float32).reshape(4, 3)
        )

    def test_write_and_gather_scatter_across_shards(self):
        storage = ShardedStorage.allocate((6, 2), shards=3)
        values = np.arange(8, dtype=np.float32).reshape(4, 2)
        storage.write_rows(1, values)
        np.testing.assert_array_equal(storage.row_block(1, 5), values)
        gathered = storage.gather_rows([4, 0, 2])
        np.testing.assert_array_equal(gathered[0], storage.row(4))
        np.testing.assert_array_equal(gathered[2], storage.row(2))

    def test_array_is_gathered_readonly_copy(self):
        storage = ShardedStorage.from_array(
            np.ones((4, 2), dtype=np.float32), shards=2
        )
        snapshot = storage.array
        assert not snapshot.flags.writeable
        with pytest.raises(ValueError):
            snapshot[0, 0] = 9.0

    def test_memmap_placement_and_flush(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MEMMAP_DIR", str(tmp_path))
        storage = ShardedStorage.allocate((5, 3), shards=2, placement="memmap")
        assert storage.placement == "memmap"
        assert all(isinstance(s, MemmapStorage) for s in storage.shards)
        storage.fill_rows(np.ones(3, dtype=np.float32))
        storage.flush()
        np.testing.assert_array_equal(storage.array, np.ones((5, 3)))

    def test_clone_and_allocate_like_preserve_configuration(self):
        storage = ShardedStorage.from_array(
            np.arange(10, dtype=np.float32).reshape(5, 2), shards=2
        )
        clone = storage.clone()
        storage.row(0)[:] = -1.0
        np.testing.assert_array_equal(clone.row(0), [0.0, 1.0])
        derived = storage.allocate_like((9, 2), dtype=np.float32)
        assert isinstance(derived, ShardedStorage)
        assert derived.num_shards == 2
        assert derived.placement == storage.placement
        np.testing.assert_array_equal(derived.array, np.zeros((9, 2)))


class TestDenseEquivalence:
    """Op-level acceptance bar: every backend bit-transparent vs dense."""

    def _pools(self, rng, backend, k=4):
        states = [make_state(rng, with_int=True) for _ in range(k)]
        dense = PoolBuffer.from_states(states, backend="dense")
        other = PoolBuffer.from_states(
            states, backend=backend, backend_options=NON_DENSE[backend]
        )
        return dense, other

    @pytest.mark.parametrize("backend", sorted(NON_DENSE))
    def test_pack_and_matrix_identical(self, rng, backend):
        dense, other = self._pools(rng, backend)
        np.testing.assert_array_equal(np.asarray(other.matrix), dense.matrix)
        assert dense.backend == "dense" and other.backend == backend

    @pytest.mark.parametrize("backend", sorted(NON_DENSE))
    def test_similarity_identical(self, rng, backend):
        dense, other = self._pools(rng, backend)
        np.testing.assert_array_equal(
            other.similarity_matrix("cosine"), dense.similarity_matrix("cosine")
        )
        np.testing.assert_array_equal(
            other.select_collaborators("lowest"),
            dense.select_collaborators("lowest"),
        )

    @pytest.mark.parametrize("backend", sorted(NON_DENSE))
    def test_cross_aggregate_identical_and_stays_on_backend(self, rng, backend):
        dense, other = self._pools(rng, backend)
        co = np.array([1, 2, 3, 0])
        out_d = dense.cross_aggregate(co, alpha=0.9)
        out_o = other.cross_aggregate(co, alpha=0.9)
        assert out_d.backend == "dense"
        assert out_o.backend == backend
        np.testing.assert_array_equal(np.asarray(out_o.matrix), out_d.matrix)

    @pytest.mark.parametrize("backend", sorted(NON_DENSE))
    @pytest.mark.parametrize("precise", [True, False])
    def test_mean_state_identical(self, rng, backend, precise):
        dense, other = self._pools(rng, backend)
        weights = [1.0, 2.0, 3.0, 4.0]
        mean_d = dense.mean_state(weights, precise=precise)
        mean_o = other.mean_state(weights, precise=precise)
        np.testing.assert_array_equal(mean_o, mean_d)

    @pytest.mark.parametrize("backend", sorted(NON_DENSE))
    def test_broadcast_identical(self, rng, backend):
        state = make_state(rng)
        layout = StateLayout.from_state(state)
        row = layout.flatten(state)
        d = PoolBuffer.broadcast(layout, row, 3, backend="dense")
        o = PoolBuffer.broadcast(
            layout, row, 3, backend=backend, backend_options=NON_DENSE[backend]
        )
        np.testing.assert_array_equal(np.asarray(o.matrix), d.matrix)

    def test_sharded_upload_lands_in_owning_shard(self, rng):
        """set_state / set_row write through to the shard, not a copy."""
        states = [make_state(rng, with_int=True) for _ in range(4)]
        buf = PoolBuffer.from_states(
            states, backend="sharded", backend_options={"shards": 2}
        )
        fresh = make_state(rng, with_int=True)
        buf.set_state(3, fresh)
        layout = StateLayout.from_state(fresh)
        expected = layout.flatten(fresh, dtype=np.float32)
        np.testing.assert_array_equal(buf.storage.shards[1].array[1], expected)
        buf.set_row(0, np.zeros(buf.num_scalars, dtype=np.float32))
        np.testing.assert_array_equal(
            buf.storage.shards[0].array[0], np.zeros(buf.num_scalars)
        )
