"""The resilient collect engine: identity, policies, retries, drains."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from _fits import BASE, assert_same_fit, extras, run_fit
from repro.faults import FaultError, QuorumError
from repro.faults.inject import UploadDropper
from repro.fl.callbacks import ServerCallback
from repro.fl.config import FLConfig
from repro.fl.execution import LegGroup, _leg_failure, stream_legs


# Seed 7 with this scenario injects failures in every round (validated
# by the chaos matrix), while quorum 0.25 always survives them.
DROPOUTS = {"availability": 0.9, "dropout": 0.2}


class TestEngineIdentity:
    def test_engaged_without_faults_is_bit_identical(self):
        # Retries alone engage the engine; with nothing failing, the
        # resilient collect must reproduce the reference bit-for-bit,
        # including the analytic communication ledger.
        reference = run_fit(BASE)
        engaged = run_fit(BASE, leg_retries=2, failure_policy="carry")
        assert_same_fit(reference, engaged)
        assert extras(engaged, "leg_failures") == []

    def test_benign_scenario_is_bit_identical(self):
        reference = run_fit(BASE)
        benign = run_fit(BASE, faults={"availability": 1.0}, failure_policy="carry")
        assert_same_fit(reference, benign)

    def test_redispatch_equals_carry_for_simulated_faults(self):
        # Simulated faults are not retryable, so redispatch has nothing
        # extra to do and must land exactly where carry does.
        carry = run_fit(BASE, faults=DROPOUTS, failure_policy="carry", quorum=0.25)
        redispatch = run_fit(
            BASE, faults=DROPOUTS, failure_policy="redispatch", quorum=0.25
        )
        assert_same_fit(carry, redispatch)


class TestPolicies:
    def test_fail_policy_raises_fault_error(self):
        with pytest.raises(FaultError, match="dropout"):
            run_fit(BASE, faults={"dropout": 1.0}, rounds=1)

    def test_quorum_breach_raises(self):
        with pytest.raises(QuorumError):
            run_fit(
                BASE,
                faults={"dropout": 1.0},
                failure_policy="carry",
                quorum=1.0,
                rounds=1,
            )

    def test_failures_surface_in_round_extras(self):
        result = run_fit(BASE, faults=DROPOUTS, failure_policy="carry", quorum=0.25)
        summaries = extras(result, "leg_failures")
        assert summaries
        for summary in summaries:
            assert set(summary) == {"client", "row", "kind", "attempts"}
            assert summary["kind"] in {"unavailable", "dropout", "straggler"}

    def test_on_leg_failure_callback_fires_per_failure(self):
        seen = []

        class Recorder(ServerCallback):
            def on_leg_failure(self, server, failure):
                seen.append((failure.kind, failure.client_id))

        result = run_fit(
            BASE,
            callbacks=[Recorder()],
            faults=DROPOUTS,
            failure_policy="carry",
            quorum=0.25,
        )
        assert len(seen) == len(extras(result, "leg_failures")) > 0


class _InstallDropper(ServerCallback):
    """Wrap the live execution backend in an UploadDropper at fit start."""

    def __init__(self, client_ids, times=1):
        self.client_ids = client_ids
        self.times = times
        self.dropper = None

    def on_round_start(self, server, round_idx):
        if self.dropper is None:
            self.dropper = UploadDropper(
                server.executor, self.client_ids, self.times
            )
            server.executor = self.dropper


class TestRetries:
    def test_retry_recovers_dropped_uploads_bitwise(self):
        # Every client's first upload is dropped after training; one
        # retry per round re-runs those legs from restored RNG
        # snapshots, so everything except the communication bill is
        # bitwise identical to the clean run.
        reference = run_fit(BASE)
        installer = _InstallDropper(range(BASE["num_clients"]), times=1)
        retried = run_fit(
            BASE,
            callbacks=[installer],
            failure_policy="carry",
            leg_retries=1,
            leg_backoff=0.001,
        )
        assert installer.dropper is not None and installer.dropper.dropped > 0
        assert_same_fit(reference, retried, comm=False)
        # The retransmissions are visible in the ledger: extra downlink
        # legs, identical uplink (each leg still lands exactly once).
        ref_recs, new_recs = reference.history.records, retried.history.records
        assert sum(r.comm_down_params for r in new_recs) > sum(
            r.comm_down_params for r in ref_recs
        )
        assert [r.comm_up_params for r in new_recs] == [
            r.comm_up_params for r in ref_recs
        ]
        # Recovered legs are not failures: nothing surfaced.
        assert extras(retried, "leg_failures") == []

    def test_exhausted_retries_fall_back_to_carry(self):
        # One leg keeps losing its upload past the retry budget; the
        # round must still complete (quorum holds on the other legs) and
        # the carried leg surfaces with the whole budget spent.
        class DropFirstLegForever(ServerCallback):
            victim = None
            dropped = 0

            def on_round_start(cb, server, round_idx):
                if getattr(server.executor, "_chaos", False):
                    return
                inner = server.executor
                outer = cb

                class Wrapper:
                    _chaos = True

                    def __getattr__(self, name):
                        return getattr(inner, name)

                    def run_streaming_captured(
                        self, trainer, active, plans, rows, uploads,
                        timeout=None, attacks=None,
                    ):
                        from repro.faults import LegFailure

                        for i, out in inner.run_streaming_captured(
                            trainer, active, plans, rows, uploads,
                            timeout=timeout, attacks=attacks,
                        ):
                            cid = int(active[i].client_id)
                            ok = not isinstance(out, LegFailure)
                            if ok and outer.victim is None:
                                outer.victim = cid
                            if ok and cid == outer.victim:
                                outer.dropped += 1
                                out = LegFailure(
                                    index=i, client_id=cid, row=int(rows[i]),
                                    kind="error", message="injected upload drop",
                                )
                            yield i, out

                server.executor = Wrapper()

        dropper = DropFirstLegForever()
        result = run_fit(
            BASE,
            callbacks=[dropper],
            rounds=1,
            failure_policy="carry",
            quorum=0.5,
            leg_retries=1,
            leg_backoff=0.001,
        )
        failures = extras(result, "leg_failures")
        # Exactly the victim's leg was carried, after spending the whole
        # budget: the initial attempt plus the single allowed retry.
        assert [s["client"] for s in failures] == [dropper.victim]
        assert failures[0]["attempts"] == 2
        assert dropper.dropped == 2


class TestTimeouts:
    def test_stream_captured_drains_before_failing(self):
        # Drain-then-fail: at the deadline the in-flight leg is awaited
        # to completion (no zombie writes later) and only then reported
        # as a drained timeout failure.
        finished = threading.Event()

        def slow():
            time.sleep(0.5)
            finished.set()
            return "late"

        active = [SimpleNamespace(client_id=0)]
        rows = [0]
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(slow)
            out = list(
                stream_legs(
                    LegGroup([future]), active, rows, capture=True, timeout=0.05
                )
            )
        assert finished.is_set()  # the drain waited for the worker
        assert len(out) == 1
        i, failure = out[0]
        assert i == 0
        assert failure.kind == "timeout" and failure.drained
        assert failure.retryable and not failure.simulated

    def test_unstarted_legs_are_cancelled_at_deadline(self):
        ran = []

        def slow():
            time.sleep(0.4)
            ran.append("first")
            return "a"

        def never():
            ran.append("second")  # pragma: no cover - must not run
            return "b"

        active = [SimpleNamespace(client_id=0), SimpleNamespace(client_id=1)]
        with ThreadPoolExecutor(max_workers=1) as pool:
            futures = [pool.submit(slow), pool.submit(never)]
            out = list(
                stream_legs(
                    LegGroup(futures), active, [0, 1], capture=True, timeout=0.05
                )
            )
        assert ran == ["first"]
        assert sorted(i for i, _ in out) == [0, 1]
        assert all(f.kind == "timeout" for _, f in out)

    def test_serial_backend_ignores_leg_timeout(self):
        # Serial legs run inline; a wall-clock deadline cannot apply and
        # must not perturb the run.
        reference = run_fit(BASE, rounds=2)
        timed = run_fit(BASE, rounds=2, leg_timeout=1e-9, failure_policy="carry")
        assert_same_fit(reference, timed)
        assert extras(timed, "leg_failures") == []

    def test_leg_failure_messages(self):
        failure = _leg_failure(
            SimpleNamespace(client_id=4), 2, 0, "error", exc=ValueError("boom")
        )
        assert failure.client_id == 4 and failure.row == 2
        assert "ValueError: boom" in failure.message
        timeout = _leg_failure(SimpleNamespace(client_id=4), 2, 0, "timeout")
        assert "deadline" in timeout.message


def _engine_collect(active, plans, rows):
    from repro.faults.engine import resilient_collect
    from repro.faults.policy import RoundPolicy

    server = SimpleNamespace(
        fault_policy=RoundPolicy.from_config(
            FLConfig(**{**BASE, "leg_retries": 1})
        ),
        fault_model=None,
        round_idx=0,
    )
    return resilient_collect(server, active, plans, rows, None)


class TestEngineGuards:
    def test_cohort_plan_length_mismatch_raises(self):
        # Regression: the engine used to truncate to
        # min(len(active), len(plans)), silently dropping legs and
        # skewing quorum accounting.  A skew must fail loudly, naming
        # both lengths, before anything trains (every backend and
        # driver: tests/fl/test_execution_conformance.py).
        active = [SimpleNamespace(client_id=0), SimpleNamespace(client_id=1)]
        plans = [SimpleNamespace(flat=None)]
        with pytest.raises(
            ValueError, match="2 active clients but 1 dispatch plans"
        ):
            _engine_collect(active, plans, [0, 1])
        with pytest.raises(ValueError, match="1 active clients but 2 dispatch"):
            _engine_collect(active[:1], plans * 2, [0, 1])


class TestInjectableSleep:
    def test_backoff_rides_injected_fault_sleep(self):
        # leg_backoff=7.5 would stall the suite for many real seconds;
        # through server.fault_sleep the delays become bookkeeping
        # entries and the retried run stays bitwise identical to the
        # clean one (modulo the retransmission downlink).
        sleeps = []

        class Install(ServerCallback):
            def __init__(self):
                self.dropper_install = _InstallDropper(
                    range(BASE["num_clients"]), times=1
                )

            def on_round_start(self, server, round_idx):
                server.fault_sleep = sleeps.append
                self.dropper_install.on_round_start(server, round_idx)

        installer = Install()
        started = time.monotonic()
        retried = run_fit(
            BASE,
            callbacks=[installer],
            failure_policy="carry",
            leg_retries=1,
            leg_backoff=7.5,
        )
        elapsed = time.monotonic() - started
        assert installer.dropper_install.dropper.dropped > 0
        assert sleeps and all(s == 7.5 for s in sleeps)
        assert elapsed < 5.0  # the 7.5 s delays never hit the wall clock
        assert_same_fit(run_fit(BASE), retried, comm=False)
        assert extras(retried, "leg_failures") == []


class TestStragglerRngRestore:
    def test_straggler_carry_restores_client_rng(self):
        # A timed-out straggler is pre-dropped (never trained); its
        # carry must leave the client RNG exactly at its round-start
        # state, while landed clients' RNGs advance.
        import copy

        class RngWatch(ServerCallback):
            def __init__(self):
                self.checked_carried = 0
                self.checked_landed = 0

            def on_round_start(self, server, round_idx):
                self.before = {
                    c.client_id: copy.deepcopy(c.rng.bit_generator.state)
                    for c in server.clients
                }
                self.cohort = None

            def on_round_end(self, server, record):
                carried = {
                    s["client"]
                    for s in record.extras.get("leg_failures", ())
                }
                by_id = {c.client_id: c for c in server.clients}
                for cid in carried:
                    assert (
                        by_id[cid].rng.bit_generator.state == self.before[cid]
                    ), f"straggler client {cid} RNG advanced"
                    self.checked_carried += 1
                advanced = [
                    cid
                    for cid, c in by_id.items()
                    if c.rng.bit_generator.state != self.before[cid]
                ]
                # Somebody trained this round (quorum held), and no
                # carried straggler is among the advanced.
                assert advanced
                assert not (set(advanced) & carried)
                self.checked_landed += len(advanced)

        watch = RngWatch()
        result = run_fit(
            BASE,
            callbacks=[watch],
            faults={
                "slow_prob": 0.5,
                "slow_factor": 4.0,
                "straggler_timeout": 2.0,
            },
            failure_policy="carry",
            quorum=0.25,
        )
        kinds = {s["kind"] for s in extras(result, "leg_failures")}
        assert kinds == {"straggler"}
        assert watch.checked_carried > 0
