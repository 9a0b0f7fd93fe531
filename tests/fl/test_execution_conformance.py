"""Every execution backend against one contract.

Each backend in ``available_executions()`` (``distributed`` on two-host
``distributed`` storage) trains one fixed cohort, held to ``serial``:

* ``run``, ``run_streaming``, ``run_streaming_captured`` and
  ``submit_group`` + ``stream_legs`` land the reference's uploads,
  results and client RNG states bit for bit, for FedAvg plans (one
  shared global row) and FedCross plans (distinct pool rows, packed
  into no row on the way);
* an invalid cohort is refused through every entrypoint before any leg
  runs, any RNG moves or the backend builds anything: skewed lengths, a
  raw-callable hook, a dispatch row that is not an upload-buffer row,
  and — except on ``serial``, whose legs run one at a time — duplicate
  rows or clients;
* a failing leg raises only after the in-flight legs drain, and the
  next round lands the reference; ``LegGroup.drain()`` finalizes
  nothing; a live trainer-hyperparameter change reaches the legs;
  ``close()`` is idempotent and the backend reusable.

A backend registered later is picked up without an edit; one the suite
cannot build fails its cells.
"""

from __future__ import annotations

import dataclasses
import os
from typing import NamedTuple

import numpy as np
import pytest

from _fits import TINY
from repro.distributed.cluster import shutdown_clusters
from repro.faults.policy import LegFailure
from repro.fl.config import FLConfig
from repro.fl.execution import LegGroup, available_executions, stream_legs
from repro.fl.hooks import HookSpec
from repro.fl.simulation import FLSimulation
from repro.utils.layout import StateLayout

EXECUTIONS = available_executions()

# Storage a backend needs beyond the default.
STORAGE = {"distributed": dict(backend="distributed", hosts=2)}


class ExplodingSpec(HookSpec):
    """A loss hook whose leg raises (module level, so it pickles)."""

    def build(self, state):
        def hook(model, logits, targets):
            raise RuntimeError("boom")

        return hook


class TouchSpec(HookSpec):
    """Creates ``path`` when a leg resolves it: proof that the leg ran,
    wherever it ran."""

    def __init__(self, path: str) -> None:
        self.path = path

    def build(self, state):
        open(self.path, "w").close()


class Landing(NamedTuple):
    uploads: np.ndarray
    results: list
    rngs: list


def _in_plan_order(legs) -> list:
    landed = dict(legs)
    assert sorted(landed) == list(range(len(landed)))
    assert not any(isinstance(leg, LegFailure) for leg in landed.values())
    return [landed[j] for j in range(len(landed))]


ENTRYPOINTS = {
    "run": lambda backend, *cohort: backend.run(*cohort),
    "run_streaming": lambda backend, *cohort: _in_plan_order(
        backend.run_streaming(*cohort)
    ),
    "run_streaming_captured": lambda backend, *cohort: _in_plan_order(
        backend.run_streaming_captured(*cohort)
    ),
    "submit_group": lambda backend, trainer, active, plans, rows, uploads: _in_plan_order(
        stream_legs(backend.submit_group(trainer, active, plans, rows, uploads), active, rows)
    ),
}


class Cell:
    """One backend's server with one dispatched cohort, replayable from
    the cohort's round-start RNG states."""

    def __init__(self, execution: str, method: str) -> None:
        config = FLConfig(**{**TINY, "method": method}).replace(
            execution=execution, workers=2, **STORAGE.get(execution, {})
        )
        self.server = FLSimulation(config).server
        self.backend = self.server.executor
        self.active = self.server.select_cohort()
        self.plans = self.server.dispatch(self.active)
        self.rows = [int(p.context.get("row", i)) for i, p in enumerate(self.plans)]
        self.uploads = self.server._round_uploads(len(self.active))
        self.start = self.rngs()

    def rngs(self) -> list:
        return [client.rng.bit_generator.state for client in self.active]

    def rewind(self) -> None:
        for client, state in zip(self.active, self.start):
            client.rng.bit_generator.state = state

    def cohort(self, plans=None, active=None, rows=None) -> tuple:
        return (
            self.server.trainer,
            self.active if active is None else active,
            self.plans if plans is None else plans,
            self.rows if rows is None else rows,
            self.uploads,
        )

    def land(self, entry: str = "run", plans=None, lr=None) -> Landing:
        """Replay the cohort through ``entry``, the live trainer at
        learning rate ``lr`` (``None``: as built)."""
        self.rewind()
        trainer = self.server.trainer
        saved = trainer.lr
        trainer.lr = saved if lr is None else lr
        try:
            results = ENTRYPOINTS[entry](self.backend, *self.cohort(plans))
        finally:
            trainer.lr = saved
        return Landing(
            np.array(self.uploads.matrix, copy=True),
            [(r.num_samples, r.num_steps, r.mean_loss) for r in results],
            self.rngs(),
        )


@pytest.fixture(scope="module")
def cells():
    built = {}

    def cell(execution: str, method: str) -> Cell:
        if (execution, method) not in built:
            built[execution, method] = Cell(execution, method)
        return built[execution, method]

    yield cell
    for made in built.values():
        made.backend.close()
    shutdown_clusters()


@pytest.fixture(scope="module")
def reference(cells):
    """The serial landing of ``method``'s cohort at learning rate ``lr``."""
    landings = {}

    def landing(method: str, lr=None) -> Landing:
        if (method, lr) not in landings:
            landings[method, lr] = cells("serial", method).land(lr=lr)
        return landings[method, lr]

    return landing


def _assert_same_landing(got: Landing, want: Landing, label: str) -> None:
    np.testing.assert_array_equal(got.uploads, want.uploads, err_msg=label)
    assert got.results == want.results, label
    assert got.rngs == want.rngs, label


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("method", ["fedavg", "fedcross"])
@pytest.mark.parametrize("entry", sorted(ENTRYPOINTS))
def test_every_entrypoint_lands_the_serial_reference(cells, reference, execution, method, entry):
    got = cells(execution, method).land(entry)
    _assert_same_landing(got, reference(method), f"{execution}/{method}/{entry}")


@pytest.mark.parametrize("execution", EXECUTIONS)
def test_a_fedcross_round_packs_no_model(cells, reference, execution, monkeypatch):
    """From dispatch to the last land no model is flattened into a row
    (``flatten`` packs through ``flatten_into``): a leg trains inside its
    trainer's row and lands it with one copy.  On local storage the
    plans *are* the pool's rows."""
    cell = cells(execution, "fedcross")
    packed, flatten_into = [], StateLayout.flatten_into
    monkeypatch.setattr(
        StateLayout, "flatten_into",
        lambda layout, state, out: packed.append(out) or flatten_into(layout, state, out),
    )
    plans = cell.server.dispatch(cell.active)
    got = cell.land(plans=plans)
    monkeypatch.undo()
    assert packed == []
    _assert_same_landing(got, reference("fedcross"), execution)
    if execution not in STORAGE:
        assert all(np.shares_memory(p.flat, cell.server.pool.matrix) for p in plans)


# -- invalid cohorts ---------------------------------------------------------
# case -> (error, message)
INVALID = {
    "fewer-plans": (ValueError, "3 active clients but 2 dispatch plans"),
    "fewer-clients": (ValueError, "2 active clients but 3 dispatch plans"),
    "raw-callable-hook": (TypeError, r"loss_hook is a function, not a repro\.fl\.hooks\.HookSpec"),
    "float64-row": (ValueError, "is not a row of the"),
    "short-row": (ValueError, "is not a row of the"),
    "duplicate-rows": (ValueError, "unique upload-buffer rows"),
    "duplicate-clients": (ValueError, "at most once"),
}
# Serial advances a client's RNG between its legs, one at a time.
SERIAL_TAKES = {"duplicate-rows", "duplicate-clients"}


def _invalid_cohort(cell: Cell, case: str, plans: list) -> tuple:
    """``cell``'s cohort over ``plans``, made invalid as ``case`` says."""
    active, rows, last = list(cell.active), list(cell.rows), plans[-1]
    if case == "fewer-plans":
        plans = plans[:-1]
    elif case == "fewer-clients":
        active = active[:-1]
    elif case == "raw-callable-hook":
        last.loss_hook = lambda model, logits, targets: None
    elif case == "float64-row":  # refused, never cast
        last.flat = np.asarray(last.flat).astype(np.float64)
    elif case == "short-row":
        last.flat = np.asarray(last.flat)[:-1].copy()
    elif case == "duplicate-rows":  # overlapping legs would race on one row
        rows = [rows[0]] * len(rows)
    elif case == "duplicate-clients":  # ... or train from one RNG snapshot
        active[1] = active[0]
    return cell.cohort(plans, active, rows)


def _backend_state(backend) -> dict:
    """What a submission could build or take: the backend's attributes,
    lists copied (the process backend's free block pairs)."""
    return {
        key: list(value) if isinstance(value, list) else value
        for key, value in vars(backend).items()
    }


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("entry", sorted(ENTRYPOINTS))
@pytest.mark.parametrize("case", sorted(INVALID))
def test_an_invalid_cohort_is_refused_before_any_leg(cells, tmp_path, execution, entry, case):
    """No leg runs (a marker spec on plan 0 would create a file wherever
    the leg ran), no RNG moves, and the backend builds or takes nothing."""
    cell = cells(execution, "fedavg")
    error, match = INVALID[case]
    marker = os.path.join(tmp_path, "leg-ran")
    plans = [dataclasses.replace(plan) for plan in cell.plans]
    plans[0].loss_hook = TouchSpec(marker)
    cohort = _invalid_cohort(cell, case, plans)
    cell.rewind()
    if execution == "serial" and case in SERIAL_TAKES:
        assert len(ENTRYPOINTS[entry](cell.backend, *cohort)) == len(plans)
        return
    before = _backend_state(cell.backend)
    with pytest.raises(error, match=match):
        ENTRYPOINTS[entry](cell.backend, *cohort)
    assert _backend_state(cell.backend) == before
    assert cell.rngs() == cell.start
    cell.backend.close()  # waits out any leg that did start
    assert not os.path.exists(marker)


# -- legs in flight ----------------------------------------------------------
@pytest.mark.parametrize("execution", EXECUTIONS)
def test_a_failing_leg_raises_after_the_rest_drain(cells, reference, execution):
    cell = cells(execution, "fedcross")
    plans = [dataclasses.replace(plan) for plan in cell.plans]
    plans[0].loss_hook = ExplodingSpec()
    cell.rewind()
    group = cell.backend.submit_group(*cell.cohort(plans))
    with pytest.raises(RuntimeError, match="boom"):
        for _ in cell.backend.run_streaming(*cell.cohort(plans), group=group):
            pass
    assert all(future.done() for future in group.futures)
    assert group.outstanding == 0
    # The next round lands as if nothing had failed.
    _assert_same_landing(cell.land(), reference("fedcross"), execution)


@pytest.mark.parametrize("execution", EXECUTIONS)
def test_drain_finalizes_nothing(cells, reference, execution, monkeypatch):
    """A drained group books no result: on a backend whose legs only
    touch what was shipped, not even a client RNG moves."""
    cell = cells(execution, "fedcross")
    finalized = []
    monkeypatch.setattr(LegGroup, "finalize", lambda group, j, raw: finalized.append(j))
    cell.rewind()
    group = cell.backend.submit_group(*cell.cohort())
    group.drain()
    monkeypatch.undo()
    assert finalized == []
    assert group.outstanding == 0
    assert all(future.done() for future in group.futures)
    if not cell.backend.legs_use_coordinator:
        assert cell.rngs() == cell.start
    _assert_same_landing(cell.land(), reference("fedcross"), execution)


@pytest.mark.parametrize("execution", EXECUTIONS)
def test_a_live_hyperparameter_change_reaches_the_legs(cells, reference, execution):
    """The experiments' per-round LR decay mutates the server's trainer
    between rounds; no backend may train at the value it was built with."""
    cell = cells(execution, "fedavg")
    for lr in (0.05, 0.002):
        _assert_same_landing(cell.land(lr=lr), reference("fedavg", lr), f"{execution}/lr={lr}")
    assert reference("fedavg", 0.05).results != reference("fedavg", 0.002).results


@pytest.mark.parametrize("execution", EXECUTIONS)
def test_close_is_idempotent_and_the_backend_reusable(cells, reference, execution):
    cell = cells(execution, "fedcross")
    cell.land()
    cell.backend.close()
    cell.backend.close()
    _assert_same_landing(cell.land(), reference("fedcross"), execution)
