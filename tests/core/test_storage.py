"""Pool storage backends: registry, memmap file lifecycle and the
sharded layout.

Op-level equivalence of every registered backend to ``dense`` lives in
the conformance suite, ``tests/core/test_storage_conformance.py``;
end-to-end (full fit) equivalence in the cross-backend matrix suite,
``tests/integration/test_backend_matrix.py``.
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
    row_handle,
    shared_medium,
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


class TestBackendRegistry:
    def test_builtin_backends_present(self):
        assert available_backends() == ["dense", "distributed", "memmap", "sharded"]

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

    def test_pool_storage_is_the_bare_protocol(self):
        """No op has a default body over ``array``: a backend that only
        exposes an array serves nothing until it implements the protocol."""

        class ArrayOnly(PoolStorage):
            array = np.zeros((3, 2), dtype=np.float32)

        bare, row = ArrayOnly(), np.zeros(2, dtype=np.float32)
        calls = [
            lambda: ArrayOnly.allocate((3, 2)), lambda: ArrayOnly.from_array(bare.array),
            bare.clone, lambda: bare.allocate_like((3, 2)), lambda: bare.shape,
            lambda: bare.dtype, lambda: bare.row(0), lambda: bare.row_block(0, 1),
            lambda: bare.write_rows(0, row[None]), lambda: bare.gather_rows([0]),
            lambda: bare.fill_rows(row), bare.shard_boundaries, lambda: bare.open_row(0),
            lambda: bare.commit_row(0, row), lambda: bare.gram_rows(np.arange(1), None),
        ]
        for call in calls:
            with pytest.raises(NotImplementedError):
                call()
        assert bare.blend_into(bare, np.arange(3), 0.5, np.arange(0), 1) is False

    def test_presets_are_one_shard_of_their_medium(self):
        """Distinct subclasses that inherit every row op, so wrapping the
        ops by class ``__dict__`` counts each call once."""
        for cls, medium in ((DenseStorage, np.ndarray), (MemmapStorage, np.memmap)):
            assert cls is not ShardedStorage and issubclass(cls, ShardedStorage)
            assert not {"row", "row_block", "write_rows", "gather_rows"} & set(vars(cls))
            storage = cls.allocate((3, 2))
            assert storage.num_shards == 1 and storage.placement == cls.name
            assert type(storage.shards[0]) is medium
            assert storage.array is storage.shards[0]  # live, not a copy

    def test_dense_adopts_its_array_and_refuses_non_matrices(self):
        matrix = np.zeros((3, 2), dtype=np.float32)
        assert DenseStorage.from_array(matrix).array is matrix
        with pytest.raises(ValueError, match=r"got shape \(6,\)"):
            PoolBuffer(StateLayout.from_state({"w": np.zeros(6)}), np.zeros(6))


MEMMAP_LAYOUTS = {
    "memmap": lambda shape, dtype: MemmapStorage.allocate(shape, dtype=dtype),
    "sharded-3-memmap": lambda shape, dtype: ShardedStorage.allocate(
        shape, dtype=dtype, shards=3, placement="memmap"
    ),
}


def _files(storage):
    return [shard.filename for shard in storage.shards]


@pytest.mark.parametrize("layout", sorted(MEMMAP_LAYOUTS))
class TestMemmapLifecycle:
    """Every memmap shard has its own file, removed with its array."""

    def test_backing_files_created_and_cleaned_up(self, layout):
        storage = MEMMAP_LAYOUTS[layout]((5, 8), np.float32)
        paths = _files(storage)
        assert len(set(paths)) == storage.num_shards
        assert all(os.path.exists(path) for path in paths)
        storage.fill_rows(np.full(8, 1.5, dtype=np.float32))
        storage.flush()
        del storage
        gc.collect()
        assert not any(os.path.exists(path) for path in paths)

    def test_respects_memmap_dir_env(self, layout, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MEMMAP_DIR", str(tmp_path))
        storage = MEMMAP_LAYOUTS[layout]((5, 4), np.float32)
        assert all(os.path.dirname(path) == str(tmp_path) for path in _files(storage))
        assert all(os.path.dirname(path) == str(tmp_path) for path in _files(storage.clone()))

    def test_clone_is_independent_and_cleaned_up(self, layout):
        storage = MEMMAP_LAYOUTS[layout]((5, 4), np.float64)
        storage.fill_rows(np.full(4, 3.0))
        clone = storage.clone()
        paths = _files(storage) + _files(clone)
        assert len(set(paths)) == 2 * storage.num_shards
        storage.fill_rows(np.full(4, -1.0))
        np.testing.assert_array_equal(clone.array, np.full((5, 4), 3.0))
        del storage, clone
        gc.collect()
        assert not any(os.path.exists(path) for path in paths)


@pytest.mark.parametrize("on_disk", [False, True], ids=["shm", "memmap"])
def test_a_family_recycles_a_released_shard_zeroed(on_disk):
    """A file or segment goes back to its family's free list once its
    array and every view are gone; the next allocation of that size
    takes it, zeroed, and another size gets its own."""
    medium = shared_medium(on_disk)

    def allocate(rows):
        storage = ShardedStorage.allocate((rows, 4), shards=1, medium=medium)
        return storage, row_handle(storage.row(0))[0]

    storage, first = allocate(3)
    view = storage.row(2)
    storage.fill_rows(np.full(4, 5.0, dtype=np.float32))
    del storage
    gc.collect()
    other, second = allocate(3)
    assert second != first  # a live view pins the first
    del view
    gc.collect()
    reused, third = allocate(3)
    assert third == first
    np.testing.assert_array_equal(reused.array, np.zeros((3, 4)))
    assert allocate(2)[1] not in (first, second)


def test_memmap_path_names_its_one_file():
    storage = MemmapStorage.allocate((2, 4))
    assert _files(storage) == [storage.path]
    assert os.path.exists(storage.path)


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
        with pytest.raises(ValueError, match="shard placement must be one of"):
            ShardedStorage.allocate((4, 2), placement="sharded")
        with pytest.raises(ValueError, match="shard placement must be one of"):
            ShardedStorage.allocate((4, 2), placement="gpu")

    def test_row_is_writable_view_into_owning_shard(self):
        storage = ShardedStorage.allocate((6, 3), shards=3)
        storage.row(4)[:] = 2.5
        shard = storage.shards[2]  # rows 4-5
        np.testing.assert_array_equal(shard[0], np.full(3, 2.5))

    def test_row_block_shard_local_is_view_cross_shard_is_copy(self):
        storage = ShardedStorage.from_array(
            np.arange(24, dtype=np.float32).reshape(8, 3), shards=4
        )
        local = storage.row_block(2, 4)  # shard 1 exactly
        assert local.base is storage.shards[1] or local is storage.shards[1]
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
        assert all(isinstance(s, np.memmap) for s in storage.shards)
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
        np.testing.assert_array_equal(buf.storage.shards[1][1], expected)
        buf.set_row(0, np.zeros(buf.num_scalars, dtype=np.float32))
        np.testing.assert_array_equal(
            buf.storage.shards[0][0], np.zeros(buf.num_scalars)
        )
