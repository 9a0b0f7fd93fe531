"""Bits gate for the client step: SHA-256 of what two SGD steps produce.

The end-to-end final-pool SHAs catch a changed bit only after a whole
``fit()``; this file catches it in about a second, one op from where it
moved.  Two momentum-SGD steps of the benchmark-shape ``cnn`` (inputs
``(3, 16, 16)``, batch 20) and ``mlp`` (batch 50) are run from fixed
seeds, and the loss, every gradient and every parameter are hashed, as
is ``evaluate_model``'s ``(accuracy, loss)`` over two eval batches.
``vgg_mini`` adds a group-norm layer between each conv and its pool: a
flow whose backward reduces gradients the pool hands back.

The digests were recorded before the client step was last optimised and
must never be regenerated by a change that claims to keep every bit: a
layout change that moves a reduction's or a GEMM's bits fails here.
CI runs ``tests/tensor`` under ``OPENBLAS_NUM_THREADS=1`` as well as at
the default width; GEMM bits do not depend on the thread count.
"""

import hashlib

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.fl.metrics import evaluate_model
from repro.models.registry import build_model
from repro.optim import SGD
from repro.tensor import Tensor
from repro.tensor.functional import cross_entropy

_SHAPE = (3, 16, 16)
_CLASSES = 10

#: Model kwargs and batch size per case (the ``cnn_serial`` and
#: ``pool_k50`` client shapes).
_CASES = {
    "cnn": (dict(input_shape=_SHAPE, num_classes=_CLASSES), 20),
    "mlp": (dict(input_dim=int(np.prod(_SHAPE)), num_classes=_CLASSES), 50),
    "vgg_mini": (dict(input_shape=_SHAPE, num_classes=_CLASSES), 20),
}

#: First 16 hex digits of each SHA-256, recorded on the unoptimised step.
_GOLDEN = {
    "cnn": {
        "grads1": "8335f292ae51ca6a",
        "grads2": "54037caf1ba8c110",
        "loss": "eb28a714b18b1291",
        "params": "5dec08abdf6eaec8",
        "eval": "0.05 0x1.27114c0000000p+1",
    },
    "mlp": {
        "grads1": "86df58d8bc851e76",
        "grads2": "369d61d51735f620",
        "loss": "339013ec77a6083d",
        "params": "aa9c07bc5a2c5ad7",
        "eval": "0.08 0x1.2a5a533333333p+1",
    },
    "vgg_mini": {
        "grads1": "af1b54ef02f201e4",
        "grads2": "11698cd7432a2a9d",
        "loss": "8f2029bad06b9068",
        "params": "6f683f43130e89e8",
        "eval": "0.075 0x1.2ab02e6666666p+1",
    },
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())  # C order, whatever the memory layout
    return h.hexdigest()[:16]


def _fingerprint(name: str) -> dict[str, str]:
    kwargs, batch = _CASES[name]
    model = build_model(name, seed=3, **kwargs)
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.5)
    rng = np.random.default_rng(17)
    named = dict(model.named_parameters())
    out: dict[str, str] = {}
    losses = []
    model.train()
    for step in (1, 2):
        x = rng.standard_normal((batch, *_SHAPE)).astype(np.float32)
        y = rng.integers(0, _CLASSES, size=batch)
        optimizer.zero_grad()
        loss = cross_entropy(model(Tensor(x)), y)
        loss.backward()
        losses.append(loss.data)
        out[f"grads{step}"] = _digest(p.grad for p in named.values())
        optimizer.step()
    out["loss"] = _digest(losses)
    out["params"] = _digest(model.state_dict()[n] for n in named)

    features = rng.standard_normal((2 * batch, *_SHAPE)).astype(np.float32)
    labels = rng.integers(0, _CLASSES, size=2 * batch)
    accuracy, eval_loss = evaluate_model(model, ArrayDataset(features, labels), batch_size=batch)
    out["eval"] = f"{accuracy!r} {float(eval_loss).hex()}"
    return out


@pytest.mark.parametrize("name", sorted(_CASES))
def test_client_step_bits_unchanged(name):
    got = _fingerprint(name)
    want = _GOLDEN[name]
    moved = sorted(k for k in want if got.get(k) != want[k])
    assert not moved, f"{name}: {moved} changed bits: {got}"
    assert got.keys() == want.keys()
