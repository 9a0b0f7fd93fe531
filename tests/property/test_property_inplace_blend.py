"""Hypothesis: the in-place CrossAggr is bitwise the allocating one.

``cross_aggregate(co, alpha, out=pool)`` overwrites the pool's own rows
in :func:`repro.core.pool.blend_schedule` order.  For every ``co`` —
1-D with fixed points, chains, 2-cycles, long cycles and many-to-one
picks, the propeller sets of :func:`propeller_index_matrix`, and random
2-D sets — the result must equal the allocating blend's with
``array_equal`` on ``dense``, ``memmap``, ``sharded`` (3 shards on
memmap files) and the shared-memory medium of ``process`` runs, and a
1-D ``co`` may hold at most one spare row at any time.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.acceleration import propeller_index_matrix
from repro.core.pool import PoolBuffer, blend_schedule
from repro.core.storage import resolve_backend, shared_medium
from repro.utils.layout import StateLayout

SHM = shared_medium()
STORAGES = [
    ("dense", {}),
    ("memmap", {}),
    ("sharded", {"shards": 3, "placement": "memmap"}),
    ("dense", {"medium": SHM}),
]


@st.composite
def functional_co(draw):
    """A 1-D ``co``: a random map (many-to-one picks, fixed points) or a
    permutation (2-cycles and long cycles), either optionally rewired
    into a chain ``i -> i + 1`` on a random span."""
    k = draw(st.integers(1, 12))
    if draw(st.booleans()):
        co = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    else:
        co = draw(st.permutations(range(k)))
    co = np.array(co, dtype=np.int64)
    lo = draw(st.integers(0, k - 1))
    hi = draw(st.integers(lo, k - 1))
    if draw(st.booleans()):
        co[lo:hi] = np.arange(lo + 1, hi + 1)
    return co


@st.composite
def propeller_co(draw):
    k = draw(st.integers(1, 12))
    return propeller_index_matrix(draw(st.integers(0, 30)), k, draw(st.integers(1, 5)))


@st.composite
def random_2d_co(draw):
    k = draw(st.integers(1, 10))
    num = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, k - 1), min_size=k * num, max_size=k * num))
    return np.array(cells, dtype=np.int64).reshape(k, num)


def _pool(k: int, seed: int, name: str, options: dict) -> PoolBuffer:
    rng = np.random.default_rng(seed)
    state = {
        "w": rng.standard_normal((2, 3)).astype(np.float32),
        "steps": np.array([5], dtype=np.int64),  # carried, never blended
        "b": rng.standard_normal(2).astype(np.float32),
    }
    layout = StateLayout.from_state(state)
    matrix = rng.standard_normal((k, layout.total_size)).astype(np.float32)
    matrix[:, layout.integer_mask()] = np.arange(k)[:, None]
    return PoolBuffer(layout, resolve_backend(name).from_array(matrix, **options))


def _check(co: np.ndarray, alpha: float, seed: int) -> None:
    for name, options in STORAGES:
        pool = _pool(len(co), seed, name, options)
        ref = pool.cross_aggregate(co, alpha)
        got = pool.cross_aggregate(co, alpha, out=pool)
        assert got is pool
        np.testing.assert_array_equal(
            got.storage.row_block(0, len(co)), ref.storage.row_block(0, len(co))
        )


alphas = st.floats(min_value=0.01, max_value=0.99)
seeds = st.integers(0, 2**16)


@settings(max_examples=60, deadline=None)
@given(co=functional_co(), alpha=alphas, seed=seeds)
def test_in_place_1d_matches_the_allocating_blend(co, alpha, seed):
    _check(co, alpha, seed)


@settings(max_examples=30, deadline=None)
@given(co=st.one_of(propeller_co(), random_2d_co()), alpha=alphas, seed=seeds)
def test_in_place_2d_matches_the_allocating_blend(co, alpha, seed):
    _check(co, alpha, seed)


@settings(max_examples=200, deadline=None)
@given(co=functional_co())
def test_a_1d_schedule_holds_at_most_one_spare(co):
    """Every row is written once, and a spare is taken only once the
    last one's readers are all written: one spare row at a time."""
    steps = blend_schedule(co)
    assert sorted(row for row, _ in steps) == list(range(len(co)))
    written: set[int] = set()
    live = None  # the row whose copy the spare holds while it has readers
    for row, slot in steps:
        if live is not None and all(
            reader in written for reader in np.flatnonzero(co == live) if reader != live
        ):
            live = None
        if slot >= 0:
            assert slot == 0 and live is None
            live = row
        # Every other reader of the row is written first, or the row is spared.
        readers = [j for j in np.flatnonzero(co == row) if j != row]
        assert slot == 0 or all(j in written for j in readers)
        written.add(row)


def test_schedule_is_a_pure_function_of_co():
    co = np.array([1, 2, 0, 0, 3, 6, 5, 5])
    assert blend_schedule(co) == blend_schedule(co.copy())
    # One 3-cycle and one 2-cycle, with trees hanging on both.
    assert sum(slot >= 0 for _, slot in blend_schedule(co)) == 2
    assert blend_schedule(np.arange(4)) == [(i, -1) for i in range(4)]
