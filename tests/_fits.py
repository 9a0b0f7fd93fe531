"""One fit, and one bitwise comparison of two fits.

Every equivalence test in the suite runs the same shape of check: two
configurations that must land on the same numbers — a backend against
the serial reference, an engaged engine against the plain loop, a
schedule against the gathered oracle.  :func:`run_fit` runs one and
keeps what the comparison needs; :func:`assert_same_fit` compares two
field by field.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from repro.fl.config import FLConfig
from repro.fl.simulation import FLSimulation, SimulationResult


# The ``tiny_config`` fixture's fit: 6 clients, K = 3, ``mlp``, 3 rounds.
TINY = dict(
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

# The small FedCross fit the fault, chaos and robust suites vary.
BASE = dict(
    method="fedcross",
    dataset="synth_cifar10",
    model="logreg",
    num_clients=8,
    participation=0.5,
    local_epochs=1,
    batch_size=16,
    rounds=3,
    seed=7,
    dataset_params={"samples_per_client": 20, "num_test": 40},
)


class Fit(NamedTuple):
    """A finished fit: its result and a copy of its final pool matrix
    (``None`` for methods without a pool)."""

    result: SimulationResult
    pool: "np.ndarray | None"

    @property
    def history(self):
        return self.result.history


def run_fit(config, *, install=None, callbacks=None, **overrides) -> Fit:
    """Run one fit of ``config`` (an :class:`FLConfig` or a mapping of
    its fields) with ``overrides`` applied.

    ``install(server)`` may swap seams in before the run (the
    ``gathered_collect`` oracle, a wrapped executor); ``callbacks`` are
    handed to the simulation.
    """
    if isinstance(config, Mapping):
        config = FLConfig(**config)
    sim = FLSimulation(config.replace(**overrides), callbacks=callbacks)
    if install is not None:
        install(sim.server)
    result = sim.run()
    pool = getattr(sim.server, "pool", None)
    matrix = None if pool is None else np.array(pool.matrix, copy=True)
    return Fit(result, matrix)


def records(fit: Fit, comm: bool = True) -> list[tuple]:
    """Per-round ``(accuracy, loss, train_loss[, comm up, comm down])``."""
    return [
        (r.accuracy, r.loss, r.train_loss)
        + ((r.comm_up_params, r.comm_down_params) if comm else ())
        for r in fit.history.records
    ]


def extras(fit: Fit, key: str) -> list:
    """Every round's ``extras[key]`` entries (``leg_failures``,
    ``suspect_uploads``), in round order."""
    return [entry for r in fit.history.records for entry in r.extras.get(key, ())]


def assert_same_fit(ref: Fit, got: Fit, label: str = "", comm: bool = True) -> None:
    """``got`` landed bit for bit where ``ref`` did.

    Checks the number of records and every record's accuracy, losses
    and (unless ``comm=False``: a retry bills extra legs) both comm
    columns; the final state's keys and arrays; and the final pool
    matrix whenever either run has one.
    """
    assert records(got, comm) == records(ref, comm), label
    ref_state, got_state = ref.result.final_state, got.result.final_state
    assert sorted(got_state) == sorted(ref_state), label
    for key, value in ref_state.items():
        np.testing.assert_array_equal(got_state[key], value, err_msg=label)
    assert (got.pool is None) == (ref.pool is None), label
    if ref.pool is not None:
        np.testing.assert_array_equal(got.pool, ref.pool, err_msg=label)
