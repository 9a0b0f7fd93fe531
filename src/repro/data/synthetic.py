"""Synthetic stand-ins for the paper's five datasets.

Offline reproduction rule: when the original data is unavailable, build
the closest synthetic equivalent that exercises the same code path (see
DESIGN.md). Each generator below reproduces the *federated structure*
of its counterpart:

``make_synthetic_image_data``
    CIFAR-10 / CIFAR-100 stand-in: K classes, each an anisotropic
    Gaussian "prototype" image smoothed spatially; samples are jittered
    (gain, spatial shift) and noised. Difficulty (the noise scale)
    controls achievable accuracy, mimicking CIFAR-100's harder regime
    via more classes at the same budget.
``make_synthetic_femnist``
    FEMNIST stand-in: grayscale characters with *per-writer* covariate
    shift (shear/shift/gain) and log-normal per-writer sample counts —
    the "naturally non-IID" structure the paper relies on.
``make_synthetic_chars``
    Shakespeare stand-in: per-client Markov-chain character sources
    sharing a global backbone transition matrix; task is next-character
    prediction.
``make_synthetic_sentiment``
    Sent140 stand-in: token sequences from class-conditional unigram
    ("topic") distributions with per-user vocabulary bias; task is
    binary sentiment classification.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset

__all__ = [
    "make_synthetic_image_data",
    "make_synthetic_femnist",
    "make_synthetic_chars",
    "make_synthetic_sentiment",
]


# ----------------------------------------------------------------------
# CIFAR-like images
# ----------------------------------------------------------------------
def _gaussian_smooth(x: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter`` over the last two axes of float64 ``x``, bit for bit.

    Same kernel expression (``truncate=4``), ``reflect`` boundary, H axis
    then W axis, and ``correlate1d``'s summation order for a symmetric
    kernel: centre tap, then the tap pairs from the outermost inwards.
    Seeded datasets are defined by this order, not by an installed scipy.
    """
    radius = int(4.0 * sigma + 0.5)
    weights = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    weights = weights / weights.sum()
    for axis in (x.ndim - 2, x.ndim - 1):
        n = x.shape[axis]
        width = [(0, 0)] * x.ndim
        width[axis] = (radius, radius)
        # numpy's "symmetric" is scipy's "reflect": d c b a | a b c d | d c b a
        padded = np.moveaxis(np.pad(x, width, mode="symmetric"), axis, -1)
        tap = lambda k: padded[..., k : k + n]  # noqa: E731 - the input at offset k - radius
        out = tap(radius) * weights[radius]
        for j in range(radius):  # the tap pairs at distance radius - j
            out += (tap(j) + tap(2 * radius - j)) * weights[j]
        x = np.moveaxis(out, -1, axis)
    return x


def _roll_each(x: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """``np.roll(x[i], shifts[i], axis=(1, 2))`` for every sample ``i``, as one gather."""
    n, c, h, w = x.shape
    rows = ((np.arange(h) - shifts[:, :1]) % h)[:, None, :, None]
    cols = ((np.arange(w) - shifts[:, 1:]) % w)[:, None, None, :]
    return x[np.arange(n)[:, None, None, None], np.arange(c)[:, None, None], rows, cols]


def _class_prototypes(
    rng: np.random.Generator,
    num_classes: int,
    shape: tuple[int, int, int],
    smooth: float,
    basis_rank: int | None = None,
) -> np.ndarray:
    """Smoothed Gaussian prototype images, one per class, unit-normalised.

    ``basis_rank`` < num_classes builds prototypes as random mixtures of
    that many shared basis images, making some class pairs genuinely
    similar. Under pixel noise those pairs are confusable, giving the
    task a graded, sub-100% accuracy ceiling — the regime of real
    CIFAR, where the paper's methods separate.
    """
    c, h, w = shape
    if basis_rank is not None and basis_rank < num_classes:
        basis = rng.standard_normal((basis_rank, c, h, w))
        coeffs = rng.standard_normal((num_classes, basis_rank))
        protos = np.tensordot(coeffs, basis, axes=1)
    else:
        protos = rng.standard_normal((num_classes, c, h, w))
    if smooth > 0:
        protos = _gaussian_smooth(protos, smooth)
    norms = np.sqrt((protos**2).sum(axis=(1, 2, 3), keepdims=True))
    return (protos / np.maximum(norms, 1e-8)) * np.sqrt(c * h * w)


def make_synthetic_image_data(
    num_classes: int = 10,
    num_train: int = 2000,
    num_test: int = 500,
    image_shape: tuple[int, int, int] = (3, 8, 8),
    noise: float = 0.9,
    max_shift: int = 1,
    basis_rank: int | None = None,
    label_noise: float = 0.0,
    seed: int = 0,
) -> tuple[ArrayDataset, ArrayDataset]:
    """CIFAR-like synthetic classification images.

    Parameters
    ----------
    noise:
        Std of additive Gaussian pixel noise; larger = harder task
        (accuracy well below 100% so FL methods can separate, exactly
        the regime of the paper's Table II).
    max_shift:
        Maximum circular spatial shift applied per sample (intra-class
        variation that rewards convolutional models).
    basis_rank:
        When set below ``num_classes``, prototypes share a low-rank
        basis, creating confusable class pairs and a graded accuracy
        ceiling (see :func:`_class_prototypes`).
    label_noise:
        Fraction of *training* labels replaced by uniform random
        classes. The test set stays clean, so reported accuracy remains
        comparable; training-signal corruption lowers the practically
        achievable accuracy into the paper's mid-range regime and
        amplifies gradient divergence between non-IID clients.

    Returns
    -------
    (train, test):
        ``ArrayDataset`` pairs with ``(N, C, H, W)`` float32 features.
    """
    if not 0.0 <= label_noise < 1.0:
        raise ValueError(f"label_noise must be in [0, 1), got {label_noise}")
    if max_shift < 0:
        raise ValueError(f"max_shift must be >= 0, got {max_shift}")
    rng = np.random.default_rng(seed)
    protos = _class_prototypes(rng, num_classes, image_shape, smooth=1.0, basis_rank=basis_rank)

    def sample(n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, num_classes, n)
        gains = rng.uniform(0.8, 1.2, size=(n, 1, 1, 1))
        x = protos[labels] * gains
        if max_shift > 0:
            x = _roll_each(x, rng.integers(-max_shift, max_shift + 1, size=(n, 2)))
        x = x + noise * rng.standard_normal(x.shape)
        return x.astype(np.float32), labels

    x_train, y_train = sample(num_train)
    x_test, y_test = sample(num_test)
    if label_noise > 0.0:
        flip = rng.random(num_train) < label_noise
        y_train = np.where(flip, rng.integers(0, num_classes, num_train), y_train)
    return ArrayDataset(x_train, y_train), ArrayDataset(x_test, y_test)


# ----------------------------------------------------------------------
# FEMNIST-like handwriting with per-writer covariate shift
# ----------------------------------------------------------------------
def make_synthetic_femnist(
    num_writers: int = 30,
    num_classes: int = 10,
    samples_per_writer_mean: float = 60.0,
    image_shape: tuple[int, int, int] = (1, 8, 8),
    noise: float = 0.6,
    writer_shift_scale: float = 0.35,
    num_test: int = 500,
    seed: int = 0,
) -> tuple[list[ArrayDataset], ArrayDataset]:
    """FEMNIST-like: per-writer client datasets + a global test set.

    Each writer has its own affine style: a circular spatial shift, a
    gain, and a writer-specific additive "stroke-style" field blended
    into every sample. Sample counts per writer follow a log-normal, so
    clients differ in both quantity and style (the natural non-IID
    regime of LEAF).

    Returns
    -------
    (clients, test):
        A list of per-writer ``ArrayDataset`` and a style-neutral global
        test set.
    """
    rng = np.random.default_rng(seed)
    protos = _class_prototypes(rng, num_classes, image_shape, smooth=1.0)
    c, h, w = image_shape

    clients: list[ArrayDataset] = []
    for _ in range(num_writers):
        n = max(10, int(rng.lognormal(mean=np.log(samples_per_writer_mean), sigma=0.5)))
        style = writer_shift_scale * _gaussian_smooth(rng.standard_normal((c, h, w)), 1.0)
        shift = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
        gain = rng.uniform(0.7, 1.3)
        labels = rng.integers(0, num_classes, n)
        x = protos[labels] * gain
        x = np.roll(x, shift=shift, axis=(2, 3))
        x = x + style[None] + noise * rng.standard_normal(x.shape)
        clients.append(ArrayDataset(x.astype(np.float32), labels))

    test_labels = rng.integers(0, num_classes, num_test)
    x_test = protos[test_labels] + noise * rng.standard_normal(
        (num_test, c, h, w)
    )
    test = ArrayDataset(x_test.astype(np.float32), test_labels)
    return clients, test


# ----------------------------------------------------------------------
# Shakespeare-like character sequences
# ----------------------------------------------------------------------
def _row_normalise(matrix: np.ndarray) -> np.ndarray:
    matrix = np.clip(matrix, 1e-8, None)
    return matrix / matrix.sum(axis=1, keepdims=True)


def make_synthetic_chars(
    num_clients: int = 16,
    vocab_size: int = 30,
    seq_len: int = 10,
    samples_per_client: int = 120,
    client_deviation: float = 0.5,
    num_test: int = 400,
    concentration: float = 0.3,
    seed: int = 0,
) -> tuple[list[ArrayDataset], ArrayDataset, int]:
    """Shakespeare-like next-character prediction corpora.

    A global sparse Markov transition backbone is perturbed per client
    (``client_deviation`` scales the perturbation), mirroring how
    different Shakespeare roles share English structure but differ in
    phrasing. Inputs are integer windows of length ``seq_len``; the
    label is the following character.

    Returns
    -------
    (clients, test, vocab_size)
    """
    rng = np.random.default_rng(seed)
    backbone = rng.dirichlet(np.full(vocab_size, concentration), size=vocab_size)

    def generate(transition: np.ndarray, n: int, gen: np.random.Generator):
        x = np.zeros((n, seq_len), dtype=np.int64)
        y = np.zeros(n, dtype=np.int64)
        cdf = np.cumsum(transition, axis=1)
        state = int(gen.integers(0, vocab_size))
        for i in range(n):
            walk = np.empty(seq_len + 1, dtype=np.int64)
            for t in range(seq_len + 1):
                state = int(np.searchsorted(cdf[state], gen.random()))
                state = min(state, vocab_size - 1)
                walk[t] = state
            x[i] = walk[:-1]
            y[i] = walk[-1]
        return x, y

    clients: list[ArrayDataset] = []
    for _ in range(num_clients):
        noise = rng.dirichlet(np.full(vocab_size, concentration), size=vocab_size)
        local = _row_normalise((1 - client_deviation) * backbone + client_deviation * noise)
        x, y = generate(local, samples_per_client, rng)
        clients.append(ArrayDataset(x, y))

    x_test, y_test = generate(backbone, num_test, rng)
    return clients, ArrayDataset(x_test, y_test), vocab_size


# ----------------------------------------------------------------------
# Sent140-like sentiment sequences
# ----------------------------------------------------------------------
def make_synthetic_sentiment(
    num_users: int = 24,
    vocab_size: int = 60,
    seq_len: int = 8,
    samples_per_user_mean: float = 50.0,
    user_bias: float = 0.4,
    num_test: int = 400,
    num_classes: int = 2,
    seed: int = 0,
) -> tuple[list[ArrayDataset], ArrayDataset, int]:
    """Sent140-like per-user sentiment corpora.

    Class-conditional unigram distributions (positive/negative "topics",
    Zipf-weighted) generate token sequences; each user mixes in its own
    vocabulary-bias distribution with weight ``user_bias`` and has a
    skewed class prior, reproducing Sent140's user-level heterogeneity.

    Returns
    -------
    (users, test, vocab_size)
    """
    rng = np.random.default_rng(seed)
    zipf = 1.0 / np.arange(1, vocab_size + 1)
    topics = np.stack(
        [_row_normalise((zipf * rng.dirichlet(np.full(vocab_size, 0.2)))[None])[0]
         for _ in range(num_classes)]
    )

    def generate(class_dists: np.ndarray, prior: np.ndarray, n: int):
        labels = rng.choice(num_classes, size=n, p=prior)
        x = np.zeros((n, seq_len), dtype=np.int64)
        for i, label in enumerate(labels):
            x[i] = rng.choice(vocab_size, size=seq_len, p=class_dists[label])
        return x, labels

    users: list[ArrayDataset] = []
    for _ in range(num_users):
        bias = rng.dirichlet(np.full(vocab_size, 0.3))
        local = _row_normalise((1 - user_bias) * topics + user_bias * bias[None])
        prior = rng.dirichlet(np.full(num_classes, 2.0))
        n = max(8, int(rng.lognormal(np.log(samples_per_user_mean), 0.4)))
        x, y = generate(local, prior, n)
        users.append(ArrayDataset(x, y))

    uniform_prior = np.full(num_classes, 1.0 / num_classes)
    x_test, y_test = generate(topics, uniform_prior, num_test)
    return users, ArrayDataset(x_test, y_test), vocab_size
