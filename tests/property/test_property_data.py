"""Hypothesis property tests for data loading and partitioning."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data.dataset import ArrayDataset, DataLoader, train_test_split
from repro.data.partition import dirichlet_partition, iid_partition, quantity_skew_partition
from repro.data.synthetic import _roll_each


def make_ds(n, num_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(
        rng.standard_normal((n, 3)).astype(np.float32), rng.integers(0, num_classes, n)
    )


class TestDataLoaderProperties:
    @given(
        n=st.integers(1, 60),
        batch=st.integers(1, 17),
        shuffle=st.booleans(),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_sample_delivered_exactly_once(self, n, batch, shuffle, seed):
        ds = make_ds(n)
        loader = DataLoader(ds, batch, shuffle=shuffle, rng=np.random.default_rng(seed))
        seen = np.concatenate([x[:, 0] for x, _ in loader])
        assert len(seen) == n
        np.testing.assert_allclose(
            np.sort(seen), np.sort(ds.features[:, 0]), rtol=1e-6
        )

    @given(n=st.integers(1, 40), batch=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_len_matches_iteration_count(self, n, batch):
        ds = make_ds(n)
        loader = DataLoader(ds, batch, shuffle=False)
        assert len(list(loader)) == len(loader)

    @given(n=st.integers(2, 40), batch=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_drop_last_batches_all_full(self, n, batch):
        ds = make_ds(n)
        loader = DataLoader(ds, batch, shuffle=False, drop_last=True)
        sizes = [len(y) for _, y in loader]
        assert all(s == batch for s in sizes)


class TestRollGatherProperties:
    @given(
        n=st.integers(1, 12),
        c=st.integers(1, 3),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        max_shift=st.integers(1, 11),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=80, deadline=None)
    def test_gather_equals_the_per_sample_roll_loop(self, n, c, h, w, max_shift, seed):
        """The loop ``make_synthetic_image_data`` used to run, kept as the oracle."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w))
        shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
        want = x.copy()
        for i in range(n):
            want[i] = np.roll(want[i], shift=tuple(shifts[i]), axis=(1, 2))
        got = _roll_each(x, shifts)
        assert got.dtype == x.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


class TestPartitionProperties:
    @given(
        n=st.integers(40, 200),
        clients=st.integers(2, 8),
        beta=st.floats(0.1, 5.0),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=30, deadline=None)
    def test_dirichlet_complete_disjoint_nonempty(self, n, clients, beta, seed):
        ds = make_ds(n, seed=seed)
        shards = dirichlet_partition(
            ds, clients, beta, np.random.default_rng(seed), min_samples=2
        )
        all_idx = np.concatenate([s.indices for s in shards])
        assert len(all_idx) == n
        assert len(np.unique(all_idx)) == n
        assert all(len(s) >= 2 for s in shards)

    @given(n=st.integers(10, 100), clients=st.integers(1, 10), seed=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_iid_complete_and_balanced(self, n, clients, seed):
        if clients > n:
            return
        ds = make_ds(n, seed=seed)
        shards = iid_partition(ds, clients, np.random.default_rng(seed))
        sizes = [len(s) for s in shards]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1

    @given(n=st.integers(50, 200), clients=st.integers(2, 8), seed=st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_quantity_skew_never_overallocates(self, n, clients, seed):
        ds = make_ds(n, seed=seed)
        shards = quantity_skew_partition(ds, clients, np.random.default_rng(seed))
        assert sum(len(s) for s in shards) <= n
        assert all(len(s) >= 2 for s in shards)


class TestSplitProperties:
    @given(
        n=st.integers(4, 100),
        frac=st.floats(0.1, 0.9),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_partitions_indices(self, n, frac, seed):
        ds = make_ds(n)
        train, test = train_test_split(ds, frac, np.random.default_rng(seed))
        joined = np.sort(np.concatenate([train.indices, test.indices]))
        np.testing.assert_array_equal(joined, np.arange(n))
        assert len(test) >= 1
        assert len(train) >= 1
