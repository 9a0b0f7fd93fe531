"""Synthetic dataset generators."""

import numpy as np
import pytest

from repro.data.synthetic import (
    _gaussian_smooth,
    make_synthetic_chars,
    make_synthetic_femnist,
    make_synthetic_image_data,
    make_synthetic_sentiment,
)


class TestGaussianSmoothOracle:
    """The numpy Gaussian is ``scipy.ndimage.gaussian_filter``'s bits, not its neighbourhood."""

    @pytest.mark.parametrize("sigma", [0.7, 1.0, 1.5])
    @pytest.mark.parametrize(
        "shape",
        [(10, 3, 8, 8), (4, 1, 16, 16), (2, 3, 5, 9), (3, 2, 3, 3), (1, 1, 1, 4), (3, 8, 8), (2, 3, 4)],
    )
    def test_array_equal_to_scipy(self, shape, sigma):
        ndimage = pytest.importorskip("scipy.ndimage")
        # (3, 3) and (1, 4) are narrower than the kernel radius: the reflection wraps repeatedly
        x = np.random.default_rng([*shape, int(10 * sigma)]).standard_normal(shape)
        want = ndimage.gaussian_filter(x, sigma=(0,) * (x.ndim - 2) + (sigma, sigma))
        got = _gaussian_smooth(x, sigma)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)

    def test_input_left_untouched(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
        before = x.copy()
        _gaussian_smooth(x, 1.0)
        assert np.array_equal(x, before)


class TestImageData:
    def test_shapes_and_dtypes(self):
        train, test = make_synthetic_image_data(
            num_classes=5, num_train=50, num_test=20, image_shape=(3, 6, 6), seed=0
        )
        assert train.features.shape == (50, 3, 6, 6)
        assert train.features.dtype == np.float32
        assert test.features.shape == (20, 3, 6, 6)
        assert train.labels.max() < 5

    def test_deterministic_by_seed(self):
        a, _ = make_synthetic_image_data(num_train=30, seed=9)
        b, _ = make_synthetic_image_data(num_train=30, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a, _ = make_synthetic_image_data(num_train=30, seed=1)
        b, _ = make_synthetic_image_data(num_train=30, seed=2)
        assert not np.allclose(a.features, b.features)

    def test_class_signal_exists(self):
        """Same-class samples must be closer than cross-class on average."""
        train, _ = make_synthetic_image_data(
            num_classes=4, num_train=200, noise=0.5, seed=0
        )
        flat = train.features.reshape(len(train), -1)
        same, diff = [], []
        for k in range(4):
            mask = train.labels == k
            centroid = flat[mask].mean(axis=0)
            same.append(np.linalg.norm(flat[mask] - centroid, axis=1).mean())
            diff.append(np.linalg.norm(flat[~mask] - centroid, axis=1).mean())
        assert np.mean(same) < np.mean(diff)

    def test_label_noise_flips_training_labels(self):
        clean, _ = make_synthetic_image_data(num_train=400, label_noise=0.0, seed=4)
        noisy, _ = make_synthetic_image_data(num_train=400, label_noise=0.5, seed=4)
        frac_changed = (clean.labels != noisy.labels).mean()
        assert 0.3 < frac_changed < 0.6  # ~0.5 * 9/10

    @pytest.mark.parametrize(
        "bad", [{"label_noise": 1.0}, {"label_noise": -0.5}, {"max_shift": -1}]
    )
    def test_parameters_validated_before_any_draw(self, bad, monkeypatch):
        def no_draws(seed):
            raise AssertionError("a generator was seeded before validation")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match=next(iter(bad))):
            make_synthetic_image_data(num_train=10, **bad)

    def test_basis_rank_reduces_prototype_rank(self):
        train, _ = make_synthetic_image_data(
            num_classes=8, num_train=80, noise=0.0, max_shift=0, basis_rank=2, seed=0
        )
        # with zero noise/shift, per-class means live in a rank <= 2 span
        flat = train.features.reshape(len(train), -1).astype(np.float64)
        centroids = np.stack([flat[train.labels == k].mean(axis=0) for k in range(8)])
        s = np.linalg.svd(centroids - 0, compute_uv=False)
        assert s[2] < s[0] * 0.2  # effectively rank ~2 (gains allow slight spill)


class TestFemnist:
    def test_writer_count_and_test_set(self):
        clients, test = make_synthetic_femnist(num_writers=7, num_test=50, seed=0)
        assert len(clients) == 7
        assert len(test) == 50

    def test_writer_sizes_vary(self):
        clients, _ = make_synthetic_femnist(num_writers=20, seed=0)
        sizes = {len(c) for c in clients}
        assert len(sizes) > 5  # log-normal quantity skew

    def test_writer_styles_differ(self):
        clients, _ = make_synthetic_femnist(num_writers=2, noise=0.0, seed=3)
        # same class, different writers -> different mean images
        means = []
        for c in clients:
            mask = c.labels == c.labels[0]
            means.append(c.features[mask].mean(axis=0))
        assert not np.allclose(means[0], means[1], atol=1e-3)

    def test_all_classes_in_test(self):
        _, test = make_synthetic_femnist(num_writers=3, num_classes=5, num_test=300, seed=0)
        assert set(np.unique(test.labels)) == set(range(5))


class TestChars:
    def test_shapes_and_vocab(self):
        clients, test, vocab = make_synthetic_chars(
            num_clients=4, vocab_size=12, seq_len=6, samples_per_client=30, seed=0
        )
        assert vocab == 12
        assert len(clients) == 4
        assert clients[0].features.shape == (30, 6)
        assert clients[0].features.dtype == np.int64
        assert clients[0].features.max() < 12
        assert test.labels.max() < 12

    def test_chain_structure_learnable(self):
        """Next char must be predictable above chance from the last char."""
        clients, test, vocab = make_synthetic_chars(
            num_clients=1, vocab_size=8, samples_per_client=600, concentration=0.1, seed=1
        )
        ds = clients[0]
        # empirical P(y | last token) majority-vote classifier
        table = {}
        for x, y in zip(ds.features, ds.labels):
            table.setdefault(x[-1], []).append(y)
        preds = {k: np.bincount(v).argmax() for k, v in table.items()}
        acc = np.mean([preds.get(x[-1], 0) == y for x, y in zip(ds.features, ds.labels)])
        assert acc > 2.0 / vocab

    def test_clients_have_different_chains(self):
        clients, _, _ = make_synthetic_chars(
            num_clients=2, client_deviation=0.9, samples_per_client=400, seed=0
        )
        # bigram distributions should differ noticeably between clients
        def bigram(ds, vocab=30):
            counts = np.zeros((vocab, vocab))
            for x in ds.features:
                for a, b in zip(x[:-1], x[1:]):
                    counts[a, b] += 1
            return counts / max(counts.sum(), 1)

        d = np.abs(bigram(clients[0]) - bigram(clients[1])).sum()
        assert d > 0.3


class TestSentiment:
    def test_shapes(self):
        users, test, vocab = make_synthetic_sentiment(
            num_users=5, vocab_size=40, seq_len=7, num_test=60, seed=0
        )
        assert vocab == 40
        assert len(users) == 5
        assert users[0].features.shape[1] == 7
        assert set(np.unique(test.labels)) <= {0, 1}

    def test_class_token_distributions_differ(self):
        users, test, vocab = make_synthetic_sentiment(
            num_users=1, user_bias=0.0, num_test=2000, seed=0
        )
        pos = test.features[test.labels == 1].reshape(-1)
        neg = test.features[test.labels == 0].reshape(-1)
        hp = np.bincount(pos, minlength=vocab) / len(pos)
        hn = np.bincount(neg, minlength=vocab) / len(neg)
        assert np.abs(hp - hn).sum() > 0.3

    def test_user_priors_skewed(self):
        users, _, _ = make_synthetic_sentiment(num_users=12, seed=0)
        fracs = [c.labels.mean() for c in users]
        assert max(fracs) - min(fracs) > 0.2
