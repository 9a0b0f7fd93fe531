"""The chaos matrix: seeded faults and host kills across backends.

Three tiers of assertion, strongest first:

1. Engine engaged, faults disabled → the distributed fleet is bitwise
   identical to the plain serial reference, communication included.
2. Committed seeded scenarios → serial and distributed complete
   identically under quorum with carry/redispatch, communication
   included (simulated faults are decided server-side and never
   dispatched, and the server bills both backends from the same leg
   counts).
3. A shard host SIGKILLed at a round boundary → the coordinator
   restores the shard from its replica before any leg dispatches, so
   even the kill run stays bitwise identical to serial.  The mid-leg
   kill (slow tier) can only promise semantic identity: the retrained
   legs land on the same numbers but the retransmissions show up in
   the communication bill.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.distributed.cluster import shutdown_clusters
from repro.faults.inject import KillHostAtRound, KillOwnHostOnce
from repro.fl.callbacks import ServerCallback
from repro.fl.config import FLConfig
from repro.fl.simulation import run_simulation

SCENARIOS = Path(__file__).parent / "scenarios"
HOSTS = 2

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

DISTRIBUTED = dict(backend="distributed", hosts=HOSTS, execution="distributed")

# (scenario file, quorum) — seed 7 injects failures every run under
# both scenarios while the paired quorum always survives them.
MATRIX = [
    ("dropouts.json", 0.25),
    ("mixed.json", 0.5),
]


def _run(callbacks=None, **overrides):
    return run_simulation(FLConfig(**{**BASE, **overrides}), callbacks=callbacks)


def _records(result, comm=True):
    return [
        (r.accuracy, r.loss, r.train_loss)
        + ((r.comm_up_params, r.comm_down_params) if comm else ())
        for r in result.history.records
    ]


def _assert_identical(a, b, comm=True):
    assert _records(a, comm=comm) == _records(b, comm=comm)
    assert sorted(a.final_state) == sorted(b.final_state)
    for key in a.final_state:
        np.testing.assert_array_equal(a.final_state[key], b.final_state[key])


def _failure_count(result):
    return sum(
        len(r.extras.get("leg_failures", ())) for r in result.history.records
    )


@pytest.fixture(scope="module", autouse=True)
def _fresh_fleet():
    # Kill tests leave respawned hosts in the pooled cluster; recycle
    # the pool after this module so later test files start clean.
    yield
    shutdown_clusters()


class TestScenarioFiles:
    @pytest.mark.parametrize("name,_quorum", MATRIX)
    def test_committed_scenarios_parse(self, name, _quorum):
        from repro.faults import FaultScenario

        spec = json.loads((SCENARIOS / name).read_text())
        scenario = FaultScenario.from_spec(str(SCENARIOS / name))
        assert scenario == FaultScenario.from_spec(spec)
        assert not scenario.benign


class TestDisabledFaults:
    def test_distributed_engaged_matches_serial_reference(self):
        reference = _run()
        engaged = _run(
            failure_policy="carry", leg_retries=1, **DISTRIBUTED
        )
        _assert_identical(reference, engaged)
        assert _failure_count(engaged) == 0


class TestSeededFaults:
    @pytest.mark.parametrize("name,quorum", MATRIX)
    def test_serial_and_distributed_complete_identically(self, name, quorum):
        faulty = dict(
            faults=str(SCENARIOS / name), failure_policy="carry", quorum=quorum
        )
        serial = _run(**faulty)
        distributed = _run(**faulty, **DISTRIBUTED)
        assert _failure_count(serial) > 0  # the seed genuinely injects
        _assert_identical(serial, distributed)

    def test_redispatch_matches_carry_across_backends(self):
        name, quorum = MATRIX[0]
        carry = _run(
            faults=str(SCENARIOS / name), failure_policy="carry", quorum=quorum
        )
        redispatch = _run(
            faults=str(SCENARIOS / name),
            failure_policy="redispatch",
            quorum=quorum,
            **DISTRIBUTED,
        )
        _assert_identical(carry, redispatch)


class TestHostKill:
    def test_round_boundary_kill_recovers_bitwise(self):
        # SIGKILL a shard host between rounds: the next storage access
        # respawns it and replays the replica before any leg dispatches,
        # so the run — faults, quorum, communication and all — is
        # bitwise identical to the serial reference.
        name, quorum = MATRIX[0]
        faulty = dict(
            faults=str(SCENARIOS / name),
            failure_policy="redispatch",
            quorum=quorum,
        )
        reference = _run(**faulty)
        killer = KillHostAtRound(host=1, at_round=1)
        killed = _run(callbacks=[killer], **faulty, **DISTRIBUTED)
        assert killer.killed
        _assert_identical(reference, killed)

    @pytest.mark.slow
    def test_mid_leg_kill_recovers_within_round(self, tmp_path):
        # A host SIGKILLs itself *inside* a training leg: the leg fails,
        # the fleet recovers, lost rows are retrained from their RNG
        # snapshots.  Accuracies and the final state match the serial
        # reference exactly; the communication bill is larger because
        # the ledger bills the failed dispatches.
        class InjectHook(ServerCallback):
            def __init__(self, spec):
                self.spec = spec
                self.wrapped = False

            def on_round_start(self, server, round_idx):
                if self.wrapped:
                    return
                self.wrapped = True
                original, spec = server.dispatch, self.spec

                def dispatch(active):
                    plans = original(active)
                    for plan in plans:
                        plan.loss_hook = spec
                    return plans

                server.dispatch = dispatch

        sentinel = tmp_path / "killed-once"
        reference = _run()
        killed = _run(
            callbacks=[InjectHook(KillOwnHostOnce(sentinel=str(sentinel)))],
            failure_policy="redispatch",
            leg_retries=1,
            **DISTRIBUTED,
        )
        assert sentinel.exists()  # a host really died mid-leg
        _assert_identical(reference, killed, comm=False)
        assert sum(r.comm_down_params for r in killed.history.records) > sum(
            r.comm_down_params for r in reference.history.records
        )
