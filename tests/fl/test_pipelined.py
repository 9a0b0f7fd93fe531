"""The pipelined sync close: round t is evaluated while round t+1 trains.

On backends whose legs train off the coordinator (``process``,
``distributed``) the sync driver starts round t+1 — callbacks, cohort,
dispatch, legs submitted — before it evaluates and closes round t.
Every record, the final model and every client RNG must still equal
the in-line ``serial`` run's; a stop requested while closing round t
discards round t+1 as if it never began, and an error there leaks no
leg.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np
import pytest

from repro.core import storage
from repro.fl.callbacks import BestStateCheckpointer, ServerCallback, ThroughputLogger
from repro.fl.config import FLConfig
from repro.fl.simulation import FLSimulation

BASE = dict(
    method="fedcross",
    dataset="synth_cifar10",
    model="mlp",
    heterogeneity=0.5,
    num_clients=8,
    participation=0.5,
    rounds=4,
    local_epochs=1,
    batch_size=16,
    eval_every=1,
    seed=11,
    dataset_params={"samples_per_client": 24, "num_test": 60},
)

BACKENDS = {
    "serial": {},
    "process": {"execution": "process", "workers": 2},
    "distributed": {"execution": "distributed", "backend": "distributed", "hosts": 2},
}
PIPELINED = ["process", "distributed"]


class Recorder(ServerCallback):
    """``(hook, round)`` in invocation order."""

    def __init__(self):
        self.calls = []

    def on_round_start(self, server, round_idx):
        self.calls.append(("start", round_idx))

    def on_evaluate(self, server, record):
        self.calls.append(("evaluate", record.round_idx))

    def on_round_end(self, server, record):
        self.calls.append(("end", record.round_idx))


class StopAt(ServerCallback):
    """Request a stop from ``hook`` of round ``at``."""

    def __init__(self, at, hook="on_round_end"):
        self.at, self.hook = at, hook

    def _maybe_stop(self, server, round_idx):
        if round_idx == self.at:
            server.stop_training = True

    def on_round_start(self, server, round_idx):
        if self.hook == "on_round_start":
            self._maybe_stop(server, round_idx)

    def on_evaluate(self, server, record):
        if self.hook == "on_evaluate":
            self._maybe_stop(server, record.round_idx)

    def on_round_end(self, server, record):
        if self.hook == "on_round_end":
            self._maybe_stop(server, record.round_idx)


def _sim(backend, **overrides):
    return FLSimulation(FLConfig(**{**BASE, **BACKENDS[backend], **overrides}))


def _state(server):
    """Everything a later round reads: records, model, every RNG."""
    return {
        "records": [
            (r.round_idx, r.accuracy, r.loss, r.train_loss, r.comm_up_params,
             r.comm_down_params)
            for r in server.history.records
        ],
        "round_idx": server.round_idx,
        "global": np.asarray(server.global_row()).tobytes(),
        "server_rng": server.rng.bit_generator.state,
        "client_rngs": [c.rng.bit_generator.state for c in server.clients],
    }


def _close(sim):
    sim.server.executor.close()


def _spy_submissions(executor) -> list:
    """Every ``LegGroup`` ``executor`` submits, in order."""
    groups, submit = [], executor.submit_group

    def spy(*args, **kwargs):
        groups.append(submit(*args, **kwargs))
        return groups[-1]

    executor.submit_group = spy
    return groups


def _all_landed_or_drained(groups) -> bool:
    return all(
        group.outstanding <= 0 and all(f.done() for f in group.futures) for group in groups
    )


@pytest.fixture(autouse=True, scope="module")
def _reap_fleet():
    yield
    from repro.distributed.cluster import shutdown_clusters

    shutdown_clusters()


@pytest.mark.parametrize("method", ["fedcross", "fedavg"])
@pytest.mark.parametrize("backend", PIPELINED)
def test_pipelined_rounds_equal_the_in_line_run(backend, method):
    reference = _sim("serial", method=method)
    reference.server.fit()
    sim = _sim(backend, method=method)
    calls = Recorder()
    try:
        sim.server.fit(callbacks=[calls])
        assert _state(sim.server) == _state(reference.server)
    finally:
        _close(sim)
    # Round t+1 started before round t closed; the final round in line.
    assert calls.calls == [
        ("start", 0),
        ("start", 1), ("evaluate", 0), ("end", 0),
        ("start", 2), ("evaluate", 1), ("end", 1),
        ("start", 3), ("evaluate", 2), ("end", 2),
        ("evaluate", 3), ("end", 3),
    ]


def test_serial_thread_and_fault_policies_keep_the_in_line_order():
    for overrides in (
        {},
        {"execution": "thread", "workers": 2},
        {"execution": "process", "workers": 2, "leg_retries": 1},
    ):
        sim = FLSimulation(FLConfig(**{**BASE, **overrides, "rounds": 2}))
        calls = Recorder()
        try:
            sim.server.fit(callbacks=[calls])
        finally:
            _close(sim)
        assert calls.calls == [
            ("start", 0), ("evaluate", 0), ("end", 0),
            ("start", 1), ("evaluate", 1), ("end", 1),
        ], overrides


@pytest.mark.parametrize("method", ["fedcross", "fedgen"])
@pytest.mark.parametrize("backend", PIPELINED)
def test_a_stop_while_closing_discards_the_started_round(backend, method):
    """A stop from round 1's close discards round 2, whose legs were in
    flight: nothing of it is booked, its draws (cohort, shuffle,
    FedGen's hook streams) are rewound, and a follow-up fit continues
    bit for bit like the in-line run's."""
    states = {}
    for name in ("serial", backend):
        sim = _sim(name, method=method)
        calls = Recorder()
        submitted = _spy_submissions(sim.server.executor)
        try:
            sim.server.fit(callbacks=[StopAt(1), calls])
            stopped = _state(sim.server)
            assert sim.server._started_legs is None
            assert len(submitted) == len({r for hook, r in calls.calls if hook == "start"})
            assert _all_landed_or_drained(submitted)
            created = storage._created["shm"]
            sim.server.fit(2)
            # The discarded round's legs let go of the rows they read:
            # the follow-up fit recycles them and makes no segment.
            assert storage._created["shm"] == created
            states[name] = (stopped, _state(sim.server))
        finally:
            _close(sim)
        assert [r[0] for r in stopped["records"]] == [0, 1]
        started = [r for hook, r in calls.calls if hook == "start"]
        assert started == ([0, 1] if name == "serial" else [0, 1, 2])
    assert states[backend] == states["serial"]


@pytest.mark.parametrize("backend", PIPELINED)
def test_early_stop_patience_matches_the_in_line_run(backend):
    """``BestStateCheckpointer(patience=...)`` — CLI ``--early-stop-patience``."""
    out = {}
    for name in ("serial", backend):
        sim = _sim(name, rounds=6)
        ckpt = BestStateCheckpointer(patience=1, restore=False)
        try:
            sim.server.fit(callbacks=[ckpt])
            assert ckpt.stopped_early
            out[name] = (_state(sim.server), ckpt.best_round)
        finally:
            _close(sim)
    assert len(out["serial"][0]["records"]) < 6
    assert out[backend] == out["serial"]


@pytest.mark.parametrize("backend", PIPELINED)
def test_a_stop_while_starting_the_next_round_still_runs_it(backend):
    """In line, a stop from ``on_round_start(t + 1)`` ends the fit after
    round t+1: the pipelined driver runs that round too."""
    out = {}
    for name in ("serial", backend):
        sim = _sim(name)
        try:
            sim.server.fit(callbacks=[StopAt(2, hook="on_round_start")])
            out[name] = _state(sim.server)
        finally:
            _close(sim)
    assert [r[0] for r in out["serial"]["records"]] == [0, 1, 2]
    assert out[backend] == out["serial"]


class _Boom(Exception):
    pass


class RaiseAt(ServerCallback):
    """Raise from ``on_evaluate`` of round ``at`` (round at+1's legs are
    in flight) or from ``on_round_start`` of round ``at`` (starting it)."""

    def __init__(self, hook, at):
        self.hook, self.at = hook, at

    def on_round_start(self, server, round_idx):
        if self.hook == "on_round_start" and round_idx == self.at:
            raise _Boom(round_idx)

    def on_evaluate(self, server, record):
        if self.hook == "on_evaluate" and record.round_idx == self.at:
            raise _Boom(record.round_idx)


def _shm_segments():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - no POSIX shm here
        return set()


@pytest.mark.parametrize("hook,at,closed", [("on_evaluate", 0, []), ("on_round_start", 1, [0])])
@pytest.mark.parametrize("backend", PIPELINED)
def test_an_error_in_a_pipelined_close_leaks_no_leg(backend, hook, at, closed):
    """``on_evaluate`` of round 0 raises while round 1's legs train: the
    group is drained (no leg in flight, its resources released).  Or
    starting round 1 raises: round 0 is closed first, as in line.  The
    server is left as the in-line run leaves it, and the same executor
    then runs a later fit."""
    import multiprocessing

    from repro.distributed.cluster import shutdown_clusters

    shm_before = _shm_segments()
    children_before = {p.pid for p in multiprocessing.active_children()}
    states = {}
    for name in ("serial", backend):
        sim = _sim(name)
        submitted = _spy_submissions(sim.server.executor)
        try:
            with pytest.raises(_Boom):
                sim.server.fit(callbacks=[RaiseAt(hook, at)])
            assert sim.server._started_legs is None
            assert _all_landed_or_drained(submitted)
            if name != "serial" and hook == "on_evaluate":
                assert len(submitted) == 2  # round 1 was in flight
            raised = _state(sim.server)
            created = storage._created["shm"]
            sim.server.fit(2)
            assert storage._created["shm"] == created  # the drained legs' rows recycled
            states[name] = (raised, _state(sim.server))
        finally:
            _close(sim)
    assert [r[0] for r in states["serial"][0]["records"]] == closed
    assert states[backend] == states["serial"]
    shutdown_clusters()
    del sim, submitted
    gc.collect()  # the server's storage family owns its segments
    assert _shm_segments() <= shm_before
    assert {p.pid for p in multiprocessing.active_children()} <= children_before


class TestThroughputLogger:
    """Overlapping rounds are each timed once, and the summary's rates
    use the wall-clock the rounds spanned."""

    def _check(self, sim, rounds):
        logger = ThroughputLogger(log=lambda line: None)
        start = time.perf_counter()
        try:
            sim.server.fit(callbacks=[logger])
        finally:
            _close(sim)
        wall = time.perf_counter() - start
        assert len(sim.server.history) == rounds
        assert len(logger.round_times) == rounds
        assert all(t > 0 for t in logger.round_times)
        summary = logger.summary()
        assert summary["rounds"] == rounds
        assert 0 < summary["total_s"] <= wall
        assert summary["rounds_per_s"] == pytest.approx(rounds / summary["total_s"])
        # Overlap: the rounds' own times add up to more than their span.
        return sum(logger.round_times), summary["total_s"]

    def test_async_overlapped_rounds(self):
        sim = FLSimulation(FLConfig(**{
            **BASE, "num_clients": 4, "participation": 1.0, "rounds": 6,
            "execution": "thread", "workers": 4,
            "round_mode": "async", "max_staleness": 2,
        }))
        self._check(sim, 6)

    def test_pipelined_sync_rounds(self):
        summed, span = self._check(_sim("process"), 4)
        assert summed > span

    def test_span_accumulates_over_fits_but_not_the_idle_between(self):
        sim = _sim("serial", rounds=2)
        logger = ThroughputLogger(log=lambda line: None)
        walls = []
        for _ in range(2):
            start = time.perf_counter()
            sim.server.fit(callbacks=[logger])
            walls.append(time.perf_counter() - start)
            time.sleep(0.05)
        summary = logger.summary()
        assert summary["rounds"] == 4
        assert max(walls) < summary["total_s"] <= sum(walls)
