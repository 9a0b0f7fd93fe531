"""Storage conformance: every registered pool backend, op by op, against
``dense``.

The suite is parametrised over :func:`available_backends`, so a backend
gets its gate by registering: a name without an entry in ``OPTIONS``
runs with its default options.  ``sharded`` runs at shard counts
{1, 2, 3, K} on both placements, ``distributed`` on a pooled two-host
fleet with each host placement and with a coordinator replica, and on
a three-host fleet (uneven spans).

Every cell must be **bit-identical** to ``dense``: the row protocol
(``row``, ``row_block``, ``gather_rows``, ``write_rows``,
``fill_rows``, ``clone``, ``allocate_like``, each keeping its medium),
the pool operations on
top of it (``cross_aggregate`` in both forms, into a new pool and in
place — which ``distributed`` declines for a new pool — both ``mean_state``
modes, the euclidean matrix and selection) under block budgets
from one row per block to one block, the incremental
:class:`~repro.core.gram.GramTracker`, and every registered aggregation
operator's ``combine`` and ``cross_blend`` (also in place).  Every cell also refuses an
out-of-range row the same way and leaves its bytes untouched.

The shared-memory medium a ``process`` run's server allocates its rows
on (``medium=shm``: one family for the module, so cells recycle its
segments) runs as ``dense`` and at every ``sharded`` shard count; where
a row lives in shared memory or a memmap file, its handle opened in a
separate interpreter reads the same bytes, and opened in this one maps
only the pages the row spans, for as long as the array lives.
"""

import hashlib
import mmap
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.gram import GramTracker
from repro.core.pool import PoolBuffer
from repro.core.selection import CoModelSel
from repro.core.storage import (
    ShardedStorage,
    available_backends,
    open_handle,
    resolve_backend,
    row_handle,
    shared_medium,
)
from repro.robust.operators import available_operators, build_operator

K = 7
SHM = shared_medium()
# One row per block (8 bytes is below one scalar), a few rows, one block.
BUDGETS = (8, 200, None)

OPTIONS = {
    "dense": [{}, {"medium": SHM}],
    "sharded": [
        {"shards": shards, "placement": placement}
        for placement in ("dense", "memmap")
        for shards in (1, 2, 3, K)
    ] + [{"shards": shards, "medium": SHM} for shards in (1, 2, 3, K)],
    "distributed": [
        {"hosts": 2},
        {"hosts": 2, "placement": "memmap"},
        {"hosts": 2, "replicate": True},
        # Uneven spans 3/2/2: three host pairs split the Gram's cross
        # blocks, and the mean's accumulator makes three hops.
        {"hosts": 3},
    ],
}


def _cell_id(name, options):
    return "-".join([name, *(
        f"{key}={getattr(value, 'kind', value)}" for key, value in options.items()
    )])


CELLS = [
    pytest.param(name, options, id=_cell_id(name, options))
    for name in available_backends()
    for options in OPTIONS.get(name, [{}])
]

pytestmark = pytest.mark.parametrize("name, options", CELLS)


@pytest.fixture
def states():
    rng = np.random.default_rng(38)
    return [
        {
            "b.weight": rng.standard_normal((3, 2)).astype(np.float32),
            "a.bias": rng.standard_normal(4).astype(np.float32),
            "c.steps": np.array([7 * (i + 1)], dtype=np.int64),
        }
        for i in range(K)
    ]


# Reads lines of row handles, answers each with their bytes' SHA-256s.
_READER = """
import ast, hashlib, sys
from repro.core.storage import open_handle
for line in sys.stdin:
    rows = [open_handle(handle) for handle in ast.literal_eval(line)]
    print(" ".join(hashlib.sha256(row.tobytes()).hexdigest() for row in rows), flush=True)
"""


@pytest.fixture(scope="module")
def reader():
    """``reader(handles)``: the rows' digests as another interpreter maps them."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", _READER], env=dict(os.environ, PYTHONPATH=src),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )

    def read(handles):
        proc.stdin.write(repr(handles) + "\n")
        proc.stdin.flush()
        return proc.stdout.readline().split()

    yield read
    proc.stdin.close()
    assert proc.wait(timeout=60) == 0


@pytest.fixture
def budget(monkeypatch):
    """``budget(b)`` pins ``REPRO_POOL_BLOCK_BYTES`` (``None``: default)."""

    def pin(value):
        if value is None:
            monkeypatch.delenv("REPRO_POOL_BLOCK_BYTES", raising=False)
        else:
            monkeypatch.setenv("REPRO_POOL_BLOCK_BYTES", str(value))

    return pin


def _pools(states, name, options):
    dense = PoolBuffer.from_states(states, backend="dense")
    other = PoolBuffer.from_states(states, backend=name, backend_options=options)
    assert dense.backend == "dense" and other.backend == name
    return dense, other


def _whole(storage):
    return np.array(storage.row_block(0, storage.shape[0]))


def _same(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    np.testing.assert_array_equal(got, ref)


class TestRowProtocol:
    def test_row_and_every_row_block(self, states, name, options):
        dense, other = _pools(states, name, options)
        _same(np.asarray(other.matrix), dense.matrix)
        for i in range(K):
            _same(np.asarray(other.row(i)), dense.row(i))
        for start in range(K + 1):
            for stop in range(start, K + 1):
                _same(other.storage.row_block(start, stop),
                      dense.storage.row_block(start, stop))

    def test_from_array_holds_the_values(self, states, name, options):
        dense, _ = _pools(states, name, options)
        storage = resolve_backend(name).from_array(dense.matrix, **options)
        _same(_whole(storage), dense.matrix)

    def test_gather_rows(self, states, name, options):
        dense, other = _pools(states, name, options)
        for indices in ([6, 0, 3, 3, 1, 5], list(range(K))[::-1], [4], []):
            indices = np.array(indices, dtype=np.int64)
            _same(other.storage.gather_rows(indices), dense.storage.gather_rows(indices))

    def test_write_rows_and_fill_rows(self, states, name, options):
        dense, other = _pools(states, name, options)
        rng = np.random.default_rng(5)
        for start, count in ((0, K), (1, 4), (2, 3), (K - 2, 2), (K, 0)):
            values = rng.standard_normal((count, dense.num_scalars)).astype(np.float32)
            dense.storage.write_rows(start, values)
            other.storage.write_rows(start, values)
            _same(_whole(other.storage), _whole(dense.storage))
        row = rng.standard_normal(dense.num_scalars).astype(np.float32)
        dense.storage.fill_rows(row)
        other.storage.fill_rows(row)
        _same(_whole(other.storage), _whole(dense.storage))

    def test_state_roundtrip_and_set_state(self, states, name, options):
        dense, other = _pools(states, name, options)
        for i, state in enumerate(states):
            back = other.as_state(i, copy=True)
            for key in state:
                np.testing.assert_array_equal(back[key], state[key])
        dense.set_state(2, states[5])
        other.set_state(2, states[5])
        dense.set_row(K - 1, dense.row(0))
        other.set_row(K - 1, np.asarray(other.row(0)))
        _same(_whole(other.storage), _whole(dense.storage))

    def test_clone_is_an_independent_copy_on_the_same_layout(self, states, name, options):
        dense, other = _pools(states, name, options)
        clone = other.storage.clone()
        assert type(clone) is type(other.storage)
        assert clone.shard_boundaries() == other.storage.shard_boundaries()
        assert getattr(clone, "placement", None) == getattr(other.storage, "placement", None)
        _same(_whole(clone), _whole(dense.storage))
        other.storage.fill_rows(np.zeros(dense.num_scalars, dtype=np.float32))
        _same(_whole(clone), _whole(dense.storage))

    def test_allocate_like_keeps_the_configuration(self, states, name, options):
        _, other = _pools(states, name, options)
        derived = other.storage.allocate_like((K + 2, 5), np.float64)
        fresh = resolve_backend(name).allocate((K + 2, 5), np.float64, **options)
        assert type(derived) is type(other.storage)
        assert derived.shard_boundaries() == fresh.shard_boundaries()
        assert getattr(derived, "placement", None) == getattr(fresh, "placement", None)
        _same(_whole(derived), np.zeros((K + 2, 5)))

    def test_a_row_handle_reads_the_same_bytes_in_a_fresh_process(
        self, states, name, options, reader
    ):
        """Rows in shared memory or a memmap file have handles, opened by
        another interpreter on the same bytes; heap and remote rows none."""
        _, other = _pools(states, name, options)
        storage = other.storage
        rows = [np.asarray(storage.row(i)) for i in range(K)]
        handles = [row_handle(row) for row in rows]
        mapped = isinstance(storage, ShardedStorage) and storage.placement != "dense"
        assert all((handle is not None) == mapped for handle in handles)
        if mapped:
            assert reader(handles) == [hashlib.sha256(row.tobytes()).hexdigest() for row in rows]


def _mappings(path: str) -> list:
    """``(start, end)`` of every mapping of ``path`` in this process."""
    with open("/proc/self/maps") as maps:
        lines = [line.split(maxsplit=5) for line in maps]
    return [
        tuple(int(x, 16) for x in cols[0].split("-"))
        for cols in lines if len(cols) == 6 and cols[5].strip() == path
    ]


class TestOpenedHandles:
    def test_a_handle_maps_the_pages_of_its_row_while_the_array_lives(self, name, options):
        """On a shared-memory segment or a memmap file, an opened row is a
        window of the pages the row's bytes span (from its offset rounded
        down to a granule: under the row's bytes plus two granules), and
        the window is unmapped with the array."""
        storage = resolve_backend(name).allocate((3, 5000), **options)
        if not (isinstance(storage, ShardedStorage) and storage.placement != "dense"):
            return  # heap and remote rows have no handle
        granule, page = mmap.ALLOCATIONGRANULARITY, mmap.PAGESIZE
        for i in range(3):
            row = np.asarray(storage.row(i))
            row[:] = np.arange(row.size, dtype=row.dtype) + i
            handle = row_handle(row)
            (kind, where), offset = handle[0], handle[1]
            path = "/dev/shm/" + where if kind == "shm" else os.path.realpath(where)
            before = _mappings(path)
            opened = open_handle(handle)
            _same(opened, row)
            start = opened.ctypes.data - offset % granule
            size = -(-(offset % granule + row.nbytes) // page) * page
            assert sorted(set(_mappings(path)) - set(before)) == [(start, start + size)]
            assert size < row.nbytes + 2 * granule
            del opened
            assert _mappings(path) == before


class TestPoolOperations:
    def test_cross_aggregate(self, states, name, options, budget):
        dense, other = _pools(states, name, options)
        co = np.array([3, 0, 6, 2, 2, 1, 4])
        groups = np.stack([(np.arange(K) + 1) % K, (np.arange(K) + 3) % K], axis=1)
        for b in BUDGETS:
            budget(b)
            for collaborators in (co, groups):
                ref = dense.cross_aggregate(collaborators, 0.9)
                got = other.cross_aggregate(collaborators, 0.9)
                assert got.backend == name
                assert got.storage.shard_boundaries() == other.storage.shard_boundaries()
                _same(_whole(got.storage), _whole(ref.storage))
                # In place: the pool's own rows, unless its storage declines.
                _, consumed = _pools(states, name, options)
                got = consumed.cross_aggregate(collaborators, 0.9, out=consumed)
                assert (got is consumed) == isinstance(consumed.storage, ShardedStorage)
                _same(_whole(got.storage), _whole(ref.storage))

    def test_mean_state_both_modes(self, states, name, options, budget):
        dense, other = _pools(states, name, options)
        weights = [float(w) for w in range(1, K + 1)]
        for b in BUDGETS:
            budget(b)
            for precise in (True, False):
                _same(other.mean_state(weights, precise=precise),
                      dense.mean_state(weights, precise=precise))

    def test_euclidean_matrix_and_selection(self, states, name, options, budget):
        dense, other = _pools(states, name, options)
        for b in BUDGETS:
            budget(b)
            _same(other.euclidean_matrix(), dense.euclidean_matrix())
            for measure in ("cosine", "euclidean"):
                sel = CoModelSel("lowest", measure)
                _same(sel.select_all(other, 0), sel.select_all(dense, 0))

    @pytest.mark.parametrize("keys", [None, {"b.weight"}])
    def test_gram_tracker(self, states, name, options, keys):
        """After *each* ``update_row``, in a scrambled order, the tracked
        Gram equals dense's bit for bit; so do a fresh tracker's and the
        closed-form post-``CrossAggr`` transform."""
        dense, other = _pools(states, name, options)
        ref = GramTracker(dense, param_keys=keys)
        got = GramTracker(other, param_keys=keys)
        for i in (4, 0, 6, 1, 5, 3, 2):
            ref.update_row(i)
            got.update_row(i)
            _same(got.gram, ref.gram)
        _same(GramTracker.from_pool(other, param_keys=keys).gram, ref.gram)
        if keys is not None:  # the closed form refuses tracked integer fields
            co = np.array([1, 2, 3, 4, 5, 6, 0])
            _same(got.cross_aggregated(co, 0.9).gram, ref.cross_aggregated(co, 0.9).gram)


class TestAggregationOperators:
    """Every registered aggregation operator over the cell's storage:
    ``combine`` and ``cross_blend`` (both ``co`` forms, with and without
    a dispatched ``fallback`` pool) on a pool with one row outside every
    trust region — one row per span on the layout with an integer column
    (detection reads an index array of columns), and one view of the
    pool on a float-only layout (detection reads a slice)."""

    def test_combine_and_cross_blend(self, states, name, options, budget):
        poisoned = [dict(state) for state in states]
        poisoned[4]["b.weight"] = poisoned[4]["b.weight"] + np.float32(60.0)
        poisoned[4]["a.bias"] = poisoned[4]["a.bias"] - np.float32(60.0)
        floats_only = [{k: v for k, v in s.items() if k != "c.steps"} for s in poisoned]
        weights = [float(w) for w in range(1, K + 1)]
        co = np.array([4, 0, 6, 2, 2, 1, 3])
        groups = np.stack([(np.arange(K) + 1) % K, (np.arange(K) + 4) % K], axis=1)
        for b, pool_states in ((BUDGETS[0], poisoned), (None, floats_only)):
            budget(b)
            dense, other = _pools(pool_states, name, options)
            dense_fallback, other_fallback = _pools(
                [{k: states[i][k] for k in state} for i, state in enumerate(pool_states)],
                name, options,
            )
            for op_name in available_operators():
                op = build_operator(op_name)
                if not op.linear:
                    np.testing.assert_array_equal(np.flatnonzero(op._detect(dense)), [4])
                _same(op.combine(other, weights), op.combine(dense, weights))
                # Stand-ins come from the fallback whatever the co form,
                # and the linear mean takes none.
                blends = [(co, None, None), (groups, None, None)]
                if not op.linear:
                    blends.append((co, dense_fallback, other_fallback))
                for collaborators, ref_fb, got_fb in blends:
                    ref = op.cross_blend(dense, collaborators, 0.9, fallback=ref_fb)
                    got = op.cross_blend(other, collaborators, 0.9, fallback=got_fb)
                    assert got.backend == name
                    _same(_whole(got.storage), _whole(ref.storage))
                    _, consumed = _pools(pool_states, name, options)
                    got = op.cross_blend(
                        consumed, collaborators, 0.9, fallback=got_fb, out=consumed
                    )
                    _same(_whole(got.storage), _whole(ref.storage))
            _same(_whole(other.storage), _whole(dense.storage))


class TestOutOfRange:
    def test_out_of_range_rows_raise_and_change_nothing(self, states, name, options):
        _, other = _pools(states, name, options)
        storage = other.storage
        before = _whole(storage)
        mirror = getattr(storage, "_mirror", None)
        mirror_before = None if mirror is None else mirror.copy()
        overflow = np.ones((4, storage.shape[1]), dtype=storage.dtype)
        requests = [
            lambda: storage.row(K),
            lambda: storage.row(-1),
            lambda: storage.row_block(K - 2, K + 2),
            lambda: storage.write_rows(K - 2, overflow),
            lambda: storage.gather_rows(np.array([-1])),
            lambda: storage.gather_rows(np.array([K])),
        ]
        for request in requests:
            with pytest.raises(IndexError, match=f"K={K}"):
                request()
        _same(_whole(storage), before)
        if mirror is not None:
            _same(storage._mirror, mirror_before)

    def test_empty_spans_are_legal(self, states, name, options):
        _, other = _pools(states, name, options)
        storage = other.storage
        before = _whole(storage)
        for start in (0, 3, K):
            assert storage.row_block(start, start).shape == (0, storage.shape[1])
            storage.write_rows(start, np.empty((0, storage.shape[1]), dtype=storage.dtype))
        assert storage.gather_rows(np.array([], dtype=np.int64)).shape == (0, storage.shape[1])
        _same(_whole(storage), before)
