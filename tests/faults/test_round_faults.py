"""The one round policy (ISSUE 20): the record, then both drivers.

``RoundFaults`` (``repro.faults.policy``) is the single place the fault
policy decides.  First the record alone, table-driven; then one
injected-failure script driven through the sync engine
(``resilient_collect``, backoff via ``server.fault_sleep``) and through
the overlapped async driver (``AsyncRoundScheduler(max_staleness=2)``
on a virtual clock) — same attempts, same delays, same final failures;
then the tail both drivers share (``close_round``): callback order and
the evaluation cadence.
"""

from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest

from repro.faults import ClientPopulation, FaultError, LegFailure, QuorumError
from repro.faults.policy import RoundPolicy
from repro.fl.callbacks import ServerCallback
from repro.fl.config import FLConfig
from repro.core.pool import PoolBuffer
from repro.fl.execution import ExecutionBackend, LegGroup, UploadState
from repro.fl.scheduler import AsyncRoundScheduler
from repro.fl.simulation import FLSimulation
from repro.utils.layout import StateLayout

BACKOFF = 0.5


def _clients(n):
    return [
        SimpleNamespace(client_id=10 + i, rng=np.random.default_rng(i))
        for i in range(n)
    ]


def _failure(kind, i=0):
    return LegFailure(index=99, client_id=10 + i, row=i, kind=kind)


class _Uploads:
    def __init__(self):
        self.written = []

    def set_row(self, row, flat):
        self.written.append((row, flat))


class _Server:
    """What ``RoundFaults.close`` touches of a server."""

    def __init__(self):
        self.uploaded = []
        self.reported = []
        self.last_leg_failures = None
        outer = self

        class Report(ServerCallback):
            def on_leg_failure(self, server, failure):
                outer.reported.append(failure.index)

        self.callbacks = [Report()]

    def on_upload(self, row, result):
        self.uploaded.append((row, result.num_samples))


# kind, tries so far, leg_retries, failure_policy, already reissued -> verdict
DECISIONS = [
    ("error", 1, 0, "carry", False, None),
    ("error", 1, 2, "carry", False, BACKOFF),
    ("error", 2, 2, "carry", False, BACKOFF * 2),
    ("error", 3, 2, "carry", False, None),
    ("timeout", 1, 1, "fail", False, BACKOFF),
    ("timeout", 2, 1, "fail", False, None),
    ("error", 1, 0, "redispatch", False, 0.0),
    ("error", 1, 0, "redispatch", True, None),
    ("error", 2, 2, "redispatch", False, BACKOFF * 2),
    ("timeout", 3, 2, "redispatch", False, 0.0),
    ("timeout", 4, 2, "redispatch", True, None),
    ("dropout", 1, 5, "redispatch", False, None),
    ("straggler", 1, 5, "carry", False, None),
    ("unavailable", 1, 5, "redispatch", False, None),
]


class TestRecordDecisions:
    @pytest.mark.parametrize(
        "kind,tries,retries,failure_policy,reissued,verdict", DECISIONS
    )
    def test_failed_leg_verdict(
        self, kind, tries, retries, failure_policy, reissued, verdict
    ):
        policy = RoundPolicy(
            leg_retries=retries, failure_policy=failure_policy, leg_backoff=BACKOFF
        )
        active = _clients(2)
        record = policy.open_round(None, 3, active, [0, 1])
        assert (record.downs, record.ups, record.failures) == (0, 0, {})
        for attempt in range(1, tries + 1):
            record.submitted(0)
            assert (record.tries[0], record.downs) == (attempt, attempt)
        if reissued:
            record.reissued.add(0)
        at_submission = active[0].rng.bit_generator.state
        active[0].rng.random(7)  # the failed attempt half-trained

        got = record.failed(0, _failure(kind))

        # The RNG is rewound before the verdict comes back.
        assert active[0].rng.bit_generator.state == at_submission
        assert got == verdict
        assert (record.downs, record.ups) == (tries, 0)
        if verdict is None:
            final = record.failures[0]
            assert (final.index, final.kind, final.attempts) == (0, kind, tries)
        else:
            assert record.failures == {}
            assert (0 in record.reissued) == (reissued or verdict == 0.0)

    def test_lost_upload_is_unlanded_and_rewound(self):
        active = _clients(1)
        record = RoundPolicy(failure_policy="carry").open_round(None, 0, active, [0])
        record.submitted(0)
        before = active[0].rng.bit_generator.state
        active[0].rng.random(3)
        record.ups += 1
        record.lost(0)
        assert (record.downs, record.ups) == (1, 0)
        assert active[0].rng.bit_generator.state == before


class TestRecordClose:
    def _record(self, failure_policy, quorum, n=4, failed=(1, 3)):
        policy = RoundPolicy(failure_policy=failure_policy, quorum=quorum)
        record = policy.open_round(None, 5, _clients(n), list(range(n)))
        for i in range(n):
            record.submitted(i)
        for i in failed:
            assert record.failed(i, _failure("error", i)) is None
        record.ups += n - len(failed)
        return record

    def test_fail_policy_aborts_with_todays_message(self):
        record = self._record("fail", 1.0, failed=(1,))
        with pytest.raises(FaultError) as err:
            record.close(_Server(), _Uploads(), [{}] * 4, [None] * 4)
        assert str(err.value) == (
            "round 5 aborted under failure_policy='fail': "
            "client 11 (row 1): error after 1 attempt(s)"
        )

    def test_below_quorum_raises_with_todays_message(self):
        record = self._record("carry", 0.75)
        with pytest.raises(QuorumError) as err:
            record.close(_Server(), _Uploads(), [{}] * 4, [None] * 4)
        assert str(err.value) == (
            "round 5: 2/4 fresh uploads, quorum 0.75 requires 3 — "
            "client 11 (row 1): error after 1 attempt(s); "
            "client 13 (row 3): error after 1 attempt(s)"
        )

    def test_carried_results_land_in_plan_order(self):
        record = self._record("carry", 0.5, failed=(3, 1))
        server = _Server()
        uploads = PoolBuffer.zeros(StateLayout.from_state({"w": np.zeros(2, np.float32)}), 4)
        dispatched = [np.full(2, i + 1, dtype=np.float32) for i in range(4)]
        results = ["fresh0", None, "fresh2", None]
        record.close(server, uploads, dispatched, results)
        assert results[0] == "fresh0" and results[2] == "fresh2"
        for i in (1, 3):
            # A carried leg reads like a landed one: a view of its
            # upload row, which now holds the row it was dispatched.
            assert isinstance(results[i].state, UploadState)
            np.testing.assert_array_equal(results[i].state["w"], dispatched[i])
            assert (results[i].num_samples, results[i].num_steps) == (0, 0)
        np.testing.assert_array_equal(
            uploads.storage.row_block(0, 4), [[0, 0], dispatched[1], [0, 0], dispatched[3]]
        )
        assert server.uploaded == [(1, 0), (3, 0)]
        assert [f.index for f in server.last_leg_failures] == [1, 3]
        assert server.reported == [1, 3]
        assert (record.downs, record.ups) == (4, 2)

    def test_predropped_legs_abort_at_open_under_fail(self):
        population = ClientPopulation({"dropout": 1.0}, seed=0, num_clients=4)
        clients = [
            SimpleNamespace(client_id=i, rng=np.random.default_rng(i))
            for i in range(4)
        ]
        with pytest.raises(FaultError, match="aborted under failure_policy='fail'"):
            RoundPolicy().open_round(population, 0, clients, range(4))
        record = RoundPolicy(failure_policy="carry", quorum=0.25).open_round(
            population, 0, clients, range(4)
        )
        assert sorted(record.failures) == [0, 1, 2, 3]
        assert all(f.attempts == 0 for f in record.failures.values())
        assert (record.downs, record.ups) == (0, 0)


# -- one failure script, both drivers -------------------------------------------
class _ScriptedFailures(ExecutionBackend):
    """Wraps a backend; ``script[client_id]`` of that client's next
    submissions fail before training (transport-style)."""

    def __init__(self, inner, script):
        self.inner = inner
        self.script = dict(script)

    def reserve(self, width):
        self.inner.reserve(width)

    def close(self):
        self.inner.close()

    def submit_group(self, trainer, active, plans, rows, uploads, attacks=None):
        failing = set()
        for j, client in enumerate(active):
            if self.script.get(client.client_id, 0) > 0:
                self.script[client.client_id] -= 1
                failing.add(j)
        keep = [j for j in range(len(active)) if j not in failing]
        rest = self.inner.submit_group(
            trainer,
            [active[j] for j in keep],
            [plans[j] for j in keep],
            [rows[j] for j in keep],
            uploads,
            attacks={keep.index(j): a for j, a in (attacks or {}).items() if j in keep}
            or None,
        )
        futures = []
        for j in range(len(active)):
            if j in failing:
                futures.append(Future())
                futures[-1].set_exception(RuntimeError("injected transport fault"))
            else:
                futures.append(rest.futures[keep.index(j)])
        return LegGroup(futures, lambda j, raw: rest.finalize(keep.index(j), raw))


SCRIPTED = dict(
    method="fedcross",
    dataset="synth_cifar10",
    model="logreg",
    num_clients=4,
    participation=1.0,
    rounds=2,
    local_epochs=1,
    batch_size=16,
    seed=13,
    dataset_params={"samples_per_client": 20, "num_test": 40},
    failure_policy="carry",
    quorum=0.5,
    leg_retries=2,
    leg_backoff=BACKOFF,
)


class TestSameScriptBothDrivers:
    # Client 1 fails twice and recovers on its last retry; client 2
    # fails past the budget and is carried with every attempt spent.
    SCRIPT = {1: 2, 2: 3}

    def _scripted_sim(self, **overrides):
        sim = FLSimulation(FLConfig(**{**SCRIPTED, **overrides}))
        sim.server.executor = _ScriptedFailures(
            sim.server.executor, self.SCRIPT
        )
        return sim

    def _failures(self, result):
        return [r.extras.get("leg_failures", []) for r in result.history.records]

    def test_sync_engine_and_async_driver_agree(self, virtual_time):
        sync = self._scripted_sim()
        sleeps = []
        sync.server.fault_sleep = sleeps.append
        sync_result = sync.run()

        vt = virtual_time
        overlapped = self._scripted_sim(round_mode="async", max_staleness=2)
        overlapped.server.round_scheduler = AsyncRoundScheduler(
            max_staleness=2, clock=vt.clock, sleep=vt.sleep
        )
        async_result = overlapped.run()

        # Delays: leg_backoff * 2**(i-1), once per retry wave.
        assert sleeps == vt.sleeps == [BACKOFF, BACKOFF * 2]
        (carried,), later = self._failures(sync_result)
        assert later == []
        assert (carried["client"], carried["kind"], carried["attempts"]) == (2, "error", 3)
        assert self._failures(async_result) == self._failures(sync_result)
        # Round 0 moved the same legs on both drivers: 4 first
        # submissions + 2 retries each for two legs, 3 fresh landings.
        for result in (sync_result, async_result):
            first = result.history.records[0]
            size = sync.server.model_size
            assert (first.comm_down_params, first.comm_up_params) == (8 * size, 3 * size)


# -- the shared round tail --------------------------------------------------------
class _Sequence(ServerCallback):
    def __init__(self):
        self.events = []

    def on_round_start(self, server, round_idx):
        self.events.append(("start", round_idx))

    def on_leg_failure(self, server, failure):
        self.events.append(("leg_failure", server.round_idx))

    def on_evaluate(self, server, record):
        self.events.append(("evaluate", record.round_idx))

    def on_round_end(self, server, record):
        self.events.append(("end", record.round_idx))


MODES = [
    pytest.param(dict(), id="sync"),
    pytest.param(dict(round_mode="async", max_staleness=0), id="async-s0"),
    pytest.param(dict(round_mode="async", max_staleness=2), id="async-s2"),
]

FAULTY = dict(
    num_clients=8,
    participation=0.5,
    seed=7,
    rounds=3,
    faults={"availability": 0.9, "dropout": 0.2},
    failure_policy="carry",
    quorum=0.25,
    leg_retries=0,
)


class TestRoundTail:
    @pytest.mark.parametrize("mode", MODES)
    def test_callback_order_is_one_contract(self, mode):
        # Failures are reported when they are final — before the
        # round's record closes — on every driver (async used to report
        # them after on_round_end).
        seq = _Sequence()
        config = FLConfig(**{**SCRIPTED, **FAULTY, "eval_every": 2, **mode})
        result = FLSimulation(config, callbacks=[seq]).run()
        by_round = {}
        for name, t in seq.events:
            by_round.setdefault(t, []).append(name)
        assert sorted(by_round) == [0, 1, 2]
        total = 0
        for t, names in by_round.items():
            failures = names.count("leg_failure")
            total += failures
            evaluated = (t + 1) % 2 == 0 or t == 2
            assert names == (
                ["start"]
                + ["leg_failure"] * failures
                + (["evaluate"] if evaluated else [])
                + ["end"]
            ), (t, names)
            assert failures == len(
                result.history.records[t].extras.get("leg_failures", ())
            )
        assert total > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_eval_cadence_and_resumed_final_round(self, mode):
        config = FLConfig(**{**SCRIPTED, "leg_retries": 0, "eval_every": 3, **mode})
        sim = FLSimulation(config)
        sim.server.fit(2)  # rounds 0-1: only the guaranteed final round
        sim.server.fit(2)  # rounds 2-3: round 2 on cadence, round 3 final
        sim.server.executor.close()
        evaluated = [r.accuracy is not None for r in sim.server.history.records]
        assert evaluated == [False, True, True, True]
        assert [r.round_idx for r in sim.server.history.records] == [0, 1, 2, 3]
