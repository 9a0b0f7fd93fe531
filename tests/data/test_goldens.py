"""Image datasets pinned byte for byte.

``dataset_goldens.json`` holds one SHA-256 per case below, generated at
the commit *before* the generators lost scipy and their per-sample
loop.  A seeded fit is only reproducible across commits while these
hold, so a digest that moves is a history-changing change: regenerate
(``python tests/data/test_goldens.py > tests/data/dataset_goldens.json``
with ``PYTHONPATH=src``) only when that is the intent.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.federated import build_federated_dataset
from repro.data.synthetic import make_synthetic_femnist, make_synthetic_image_data

GOLDENS = Path(__file__).with_name("dataset_goldens.json")

CASES = {
    "image/default": lambda: make_synthetic_image_data(),
    "image/3x16x16_5000_400": lambda: make_synthetic_image_data(
        num_train=5000, num_test=400, image_shape=(3, 16, 16)
    ),
    "image/shift2_20cls_rank6_noise0.2": lambda: make_synthetic_image_data(
        max_shift=2, num_classes=20, basis_rank=6, label_noise=0.2, seed=3
    ),
    "image/shift0": lambda: make_synthetic_image_data(max_shift=0, seed=5),
    "femnist/default": lambda: make_synthetic_femnist(),
    "federated/synth_cifar10": lambda: build_federated_dataset(
        "synth_cifar10", num_clients=8, heterogeneity=0.5, seed=11
    ),
    "federated/synth_cifar100": lambda: build_federated_dataset(
        "synth_cifar100", num_clients=8, heterogeneity="iid", seed=12
    ),
    "federated/synth_femnist": lambda: build_federated_dataset(
        "synth_femnist", num_clients=8, seed=13
    ),
}


def _datasets(built):
    """Every ``ArrayDataset`` of a generator's return value, in order."""
    if hasattr(built, "clients"):
        return [*built.clients, built.test]
    out = []
    for part in built:
        out.extend(part if isinstance(part, list) else [part])
    return out


def digest(built) -> str:
    sha = hashlib.sha256()
    for ds in _datasets(built):
        for array in (ds.features, ds.labels):
            sha.update(f"{array.dtype.str}{array.shape}".encode())
            sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_dataset_bytes_match_golden(case):
    assert digest(CASES[case]()) == json.loads(GOLDENS.read_text())[case]


if __name__ == "__main__":
    print(json.dumps({case: digest(build()) for case, build in sorted(CASES.items())}, indent=2))
