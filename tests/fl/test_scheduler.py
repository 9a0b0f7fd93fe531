"""Round schedulers: the async bounded-staleness runtime.

The schedule's equivalence contract — async S=0 and serial S>0 bitwise
the sync reference, overlapped runs holding the structural invariants,
across backends, methods, fault scenarios and aggregators — is generated
in ``tests/integration/test_layer_products.py``.  Here: the scheduler
registry, speculation engaging on an overlapped run at the cost of the
landed block's dots only, the injectable clock/sleep (retry backoff
without real waiting) and the on_upload ordering invariants.
"""

import time
from concurrent.futures import Future

import numpy as np
import pytest

from _fits import run_fit
from repro.fl.config import FLConfig
from repro.fl.execution import LegGroup
from repro.fl.scheduler import (
    AsyncRoundScheduler,
    SyncRoundScheduler,
    build_round_scheduler,
)
from repro.fl.simulation import FLSimulation

BASE = dict(
    method="fedcross",
    dataset="synth_cifar10",
    model="mlp",
    heterogeneity=0.5,
    num_clients=4,
    participation=1.0,
    rounds=3,
    local_epochs=1,
    batch_size=16,
    eval_every=1,
    seed=13,
    dataset_params={"samples_per_client": 20, "num_test": 40},
)

# Async extras contract: every overlapped round reports these counters.
ASYNC_KEYS = {
    "speculative_blends",
    "speculative_reblends",
    "reconcile_fixes",
    "stale_uploads",
    "max_dispatch_staleness",
}


def _config(**overrides) -> FLConfig:
    return FLConfig(**{**BASE, **overrides})


class TestRegistry:
    def test_default_is_sync(self):
        assert isinstance(build_round_scheduler(_config()), SyncRoundScheduler)

    def test_async_reads_staleness_from_config(self):
        sched = build_round_scheduler(_config(round_mode="async", max_staleness=2))
        assert isinstance(sched, AsyncRoundScheduler)
        assert sched.max_staleness == 2

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError, match="max_staleness"):
            AsyncRoundScheduler(max_staleness=-1)
        with pytest.raises(ValueError, match="max_staleness"):
            _config(round_mode="async", max_staleness=-1)

    def test_unknown_round_mode_rejected(self):
        with pytest.raises(ValueError, match="round_mode"):
            _config(round_mode="overlapped")


class TestOverlappedRounds:
    def test_thread_overlap_invariants(self):
        result, matrix = run_fit(
            _config(
                round_mode="async",
                max_staleness=2,
                execution="thread",
                workers=2,
            )
        )
        records = result.history.records
        assert [r.round_idx for r in records] == list(range(BASE["rounds"]))
        total_blends = 0
        for r in records:
            info = r.extras["async"]
            assert ASYNC_KEYS <= set(info)
            assert all(int(info[k]) >= 0 for k in ASYNC_KEYS)
            assert info["max_dispatch_staleness"] <= 2
            assert r.accuracy is not None and 0.0 <= r.accuracy <= 1.0
            total_blends += info["speculative_blends"]
        # Speculation must actually engage on an overlapped run.
        assert total_blends > 0
        assert matrix is not None and np.isfinite(matrix).all()

    def test_speculative_landing_dots_the_landed_block_only(self, monkeypatch):
        """A landing under S=2 costs |landed| dots — the new row against
        what its round has landed, itself included — never K, and the
        speculative selector that follows it adds none."""
        from repro.core.gram import GramTracker

        landings, selections = [], []
        update_row, select_among = GramTracker.update_row, GramTracker.select_among

        def spy_update(tracker, index):
            before = tracker.dots
            update_row(tracker, index)
            landings.append((tracker.dots - before, int(tracker._reported.sum())))

        def spy_select(tracker, index, candidates, highest=True):
            before = tracker.dots
            picked = select_among(tracker, index, candidates, highest)
            selections.append(tracker.dots - before)
            return picked

        monkeypatch.setattr(GramTracker, "update_row", spy_update)
        monkeypatch.setattr(GramTracker, "select_among", spy_select)
        k = BASE["num_clients"]
        run_fit(_config(round_mode="async", max_staleness=2, execution="thread", workers=2))
        assert len(landings) == BASE["rounds"] * k
        assert all(dots == landed for dots, landed in landings)
        assert sorted(landed for _dots, landed in landings) == sorted(
            list(range(1, k + 1)) * BASE["rounds"]
        )
        assert selections and not any(selections)

class _FailFirstLeg:
    """Backend wrapper: the first submitted leg fails *before* training
    (transport-style), exactly once; every other leg passes through."""

    def __init__(self, inner):
        self._inner = inner
        self.tripped = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def submit_group(self, trainer, active, plans, rows, uploads, attacks=None):
        if self.tripped:
            return self._inner.submit_group(
                trainer, active, plans, rows, uploads, attacks=attacks
            )
        self.tripped = True
        failed = Future()
        failed.set_exception(RuntimeError("injected transport fault"))
        rest = self._inner.submit_group(
            trainer,
            active[1:],
            plans[1:],
            rows[1:],
            uploads,
            attacks={j - 1: a for j, a in (attacks or {}).items() if j >= 1}
            or None,
        )
        return LegGroup(
            [failed] + rest.futures, lambda j, raw: rest.finalize(j - 1, raw)
        )


class TestInjectableClock:
    def test_retry_backoff_rides_injected_clock(self, virtual_time):
        # leg_backoff=5.0 would stall a real run for seconds; through
        # the injected clock the backoff is a bookkeeping entry and the
        # retried leg (whose client RNG was never advanced — it failed
        # pre-training) reproduces the clean run bit-for-bit except for
        # the one extra dispatch in the communication ledger.  Thread
        # legs: serial ones train at submit, so nothing runs ahead there.
        config = _config(
            round_mode="async",
            max_staleness=2,
            execution="thread",
            workers=2,
            leg_retries=1,
            leg_backoff=5.0,
            failure_policy="carry",
        )
        clean = run_fit(config)
        vt = virtual_time

        def install(server):
            server.round_scheduler = AsyncRoundScheduler(
                max_staleness=2, clock=vt.clock, sleep=vt.sleep
            )
            server.executor = _FailFirstLeg(server.executor)

        started = time.monotonic()
        faulty = run_fit(config, install=install)
        elapsed = time.monotonic() - started
        # The 5 s backoff happened on the virtual clock only.
        assert vt.sleeps == [5.0]
        assert vt.now == 5.0
        assert elapsed < 4.0
        clean_recs = clean.history.records
        faulty_recs = faulty.history.records
        # Round 0 is deterministic: the retried leg failed *before*
        # training, so its retry trains the exact same state and RNG —
        # same uploads, same eval, one extra dispatch on the ledger.
        c0, f0 = clean_recs[0], faulty_recs[0]
        assert (c0.accuracy, c0.loss, c0.train_loss) == (
            f0.accuracy,
            f0.loss,
            f0.train_loss,
        )
        assert f0.comm_up_params == c0.comm_up_params
        model_size = c0.comm_down_params // BASE["num_clients"]
        assert f0.comm_down_params == c0.comm_down_params + model_size
        # Later rounds legally diverge (other clients ran ahead while
        # the retry pended — that *is* the overlap win); no failures
        # survive, and the run completes every round.
        assert len(faulty_recs) == BASE["rounds"]
        for r in faulty_recs:
            assert "leg_failures" not in r.extras
            assert r.accuracy is not None and 0.0 <= r.accuracy <= 1.0
        assert faulty_recs[1].extras["async"]["max_dispatch_staleness"] >= 1


def _spy_on_upload(sim):
    """Record every (round, row, fresh?) the server's on_upload sees."""
    fired = []
    orig = sim.server.on_upload

    def on_upload(row, result):
        fired.append((sim.server.round_idx, int(row), result.num_samples > 0))
        orig(row, result)

    sim.server.on_upload = on_upload
    return fired


class TestOnUploadOrdering:
    """Satellite: streaming, gathered and async schedules each fire
    on_upload exactly once per (round, row) — and the async S=0 firing
    set equals the sync one."""

    def _fired(self, install=None, **overrides):
        sim = FLSimulation(_config(**overrides))
        if install is not None:
            install(sim.server)  # the gathered oracle
        fired = _spy_on_upload(sim)
        sim.run()
        return fired

    def _assert_once_per_round_row(self, fired, rounds, rows_per_round):
        tags = [(t, row) for t, row, _fresh in fired]
        assert len(tags) == len(set(tags))
        assert len(tags) == rounds * rows_per_round
        for t in range(rounds):
            assert sorted(row for rt, row in tags if rt == t) == list(
                range(rows_per_round)
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(gathered=True),
            dict(round_mode="async", max_staleness=0),
            dict(round_mode="async", max_staleness=2),
            dict(
                round_mode="async",
                max_staleness=2,
                execution="thread",
                workers=2,
            ),
        ],
        ids=["streaming", "gathered", "async-s0", "async-s2", "async-s2-thread"],
    )
    def test_fires_exactly_once_per_round_row(self, overrides, gathered_collect):
        overrides = dict(overrides)
        install = gathered_collect if overrides.pop("gathered", False) else None
        fired = self._fired(install, **overrides)
        self._assert_once_per_round_row(
            fired, BASE["rounds"], BASE["num_clients"]
        )
        assert all(fresh for _t, _row, fresh in fired)

    def test_async_zero_staleness_fires_same_set_as_sync(self):
        sync = self._fired()
        zero = self._fired(round_mode="async", max_staleness=0)
        assert sorted(sync) == sorted(zero)

    def test_carried_rows_fire_once_too(self):
        fired = self._fired(
            round_mode="async",
            max_staleness=2,
            num_clients=8,
            participation=0.5,
            seed=7,
            faults={"availability": 0.9, "dropout": 0.2},
            failure_policy="carry",
            quorum=0.25,
        )
        tags = [(t, row) for t, row, _fresh in fired]
        assert len(tags) == len(set(tags))
        assert len(tags) == BASE["rounds"] * 4  # 4 legs per round at P=0.5
        assert any(not fresh for _t, _row, fresh in fired)
