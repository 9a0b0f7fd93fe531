"""Every method's bits, pinned.

Each cell fits one method on the ``tiny_config`` scenario (6 clients,
K = 3, ``mlp``, 3 rounds, seed 7) and pins two digests: the first 16 hex
digits of the SHA-256 of the final global row (``server.global_row()``,
float32 bytes), and the same of the accuracy, loss, train-loss and
communication histories (``repr`` of Python floats round-trips exactly).

The digests were recorded before the server moved from state dicts to
rows and are held across thread widths (identical at one BLAS thread,
at two and at the default width).  A change that claims to keep every
bit may never regenerate them; only a change that documents a bit move
(and says which) may, with ``python tests/baselines/test_method_bits.py``
printing the new table.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.fl.callbacks import BestStateCheckpointer
from repro.fl.config import FLConfig
from repro.fl.simulation import FLSimulation

METHODS = (
    "fedavg", "fedprox", "scaffold", "fedgen", "clusamp", "fedcluster", "fedcross",
)

# cell -> (final global row digest, history digest)
PINNED = {
    "fedavg": ("9dca4452c1c02d7f", "c222c7bf3dede1bb"),
    "fedprox": ("b07b3915ede38d7e", "0b404c24b77dbc08"),
    "scaffold": ("365b9329a867d6f1", "f68e10fbff999871"),
    "fedgen": ("6ea5086c8ba9ad4d", "a2d8ee3456d43129"),
    "clusamp": ("b9ed1f7b007c79cf", "7d8ea225d5c2a557"),
    "fedcluster": ("b40f217f1c414c99", "1ef688701089342a"),
    "fedcross": ("80d4c52388c9c053", "ebb203c0ad679d43"),
    "scaffold-server_lr=0.5": ("5727d36a392dbb4e", "a6c9f6e0a2a0fc10"),
    "fedavg-trimmed_mean": ("a387ad9a0c9a80fc", "f5b787cb5a4d11c9"),
    "fedcluster-trimmed_mean": ("59becfeb761c00f2", "244e09d11643abc1"),
    "fedavg-restore": ("e71b96a392eced7d", "c222c7bf3dede1bb"),
    "fedcross-restore": ("dc3cc21a33ddd13a", "ebb203c0ad679d43"),
}


def _tiny_config() -> FLConfig:
    # The conftest ``tiny_config`` fixture, rebuilt so the table below can
    # also be printed outside pytest.
    return FLConfig(
        method="fedavg",
        dataset="synth_cifar10",
        model="mlp",
        heterogeneity=0.5,
        num_clients=6,
        participation=0.5,
        rounds=3,
        local_epochs=1,
        batch_size=16,
        eval_every=1,
        seed=7,
        dataset_params={"samples_per_client": 30, "num_test": 120},
    )


def _cell(name: str):
    """``(config, callbacks)`` of one cell."""
    base = _tiny_config()
    if name in METHODS:
        return base.with_method(name), []
    if name == "scaffold-server_lr=0.5":
        return base.with_method("scaffold", server_lr=0.5), []
    if name == "fedavg-trimmed_mean":
        return base.replace(aggregator="trimmed_mean"), []
    if name == "fedcluster-trimmed_mean":
        # Full participation gives each of the two visits three members.
        # At the scenario's K = 3 a visit trains one client, and a
        # trimmed mean of one row is that row.
        return base.with_method("fedcluster").replace(
            aggregator="trimmed_mean", participation=1.0
        ), []
    method = name.removesuffix("-restore")
    return base.with_method(method), [BestStateCheckpointer(restore=True)]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _opt(value):
    return None if value is None else float(value)


def run_cell(name: str) -> tuple[str, str]:
    config, callbacks = _cell(name)
    sim = FLSimulation(config, callbacks=callbacks)
    result = sim.run()
    row = np.ascontiguousarray(sim.server.global_row(), dtype=np.float32)
    series = [
        (
            _opt(r.accuracy),
            _opt(r.loss),
            _opt(r.train_loss),
            int(r.comm_up_params),
            int(r.comm_down_params),
        )
        for r in result.history.records
    ]
    return _digest(row.tobytes()), _digest(repr(series).encode())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_method_bits_are_pinned(name):
    assert run_cell(name) == PINNED[name]


if __name__ == "__main__":
    for cell in PINNED:
        print(f"    {cell!r}: {run_cell(cell)!r},")
