"""The chaos matrix: seeded faults and host kills across backends.

Three tiers of assertion, strongest first:

1. Engine engaged, faults disabled → the distributed fleet is bitwise
   identical to the plain serial reference, communication included.
2. Committed seeded scenarios → redispatch on the distributed fleet
   lands where carry does on serial, communication included (simulated
   faults are decided server-side, never dispatched and never
   reissued).  Each scenario on every backend, execution and schedule
   is a cell of ``tests/integration/test_layer_products.py``.
3. A shard host SIGKILLed at a round boundary → the coordinator
   restores the shard from its replica before any leg dispatches, so
   even the kill run stays bitwise identical to serial.  The mid-leg
   kill (slow tier) can only promise semantic identity: the retrained
   legs land on the same numbers but the retransmissions show up in
   the communication bill.
"""

import json
from pathlib import Path

import pytest

from _fits import BASE, assert_same_fit, extras, run_fit
from repro.distributed.cluster import get_cluster, shutdown_clusters
from repro.faults.inject import KillHostAtRound, KillOwnHostOnce, KillPeerMidFlush
from repro.fl.callbacks import ServerCallback

SCENARIOS = Path(__file__).parent / "scenarios"
HOSTS = 2


DISTRIBUTED = dict(backend="distributed", hosts=HOSTS, execution="distributed")

# (scenario file, quorum) — seed 7 injects failures every run under
# both scenarios while the paired quorum always survives them.
MATRIX = [
    ("dropouts.json", 0.25),
    ("mixed.json", 0.5),
]


@pytest.fixture(scope="module", autouse=True)
def _fresh_fleet():
    # Kill tests leave respawned hosts in the pooled cluster; recycle
    # the pool after this module so later test files start clean.
    yield
    shutdown_clusters()


def _tcp_on(ports):
    """``(state, local port, remote port)`` of every listening ("0A") or
    established ("01") TCP socket with either end on ``ports``."""
    found = []
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as handle:
                rows = handle.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            local, remote = (int(f.rsplit(":", 1)[1], 16) for f in fields[1:3])
            if fields[3] in ("01", "0A") and {local, remote} & ports:
                found.append((fields[3], local, remote))
    return found


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
        reference = run_fit(BASE)
        engaged = run_fit(
            BASE,
            failure_policy="carry", leg_retries=1, **DISTRIBUTED
        )
        assert_same_fit(reference, engaged)
        assert extras(engaged, "leg_failures") == []


class TestSeededFaults:
    def test_redispatch_matches_carry_across_backends(self):
        name, quorum = MATRIX[0]
        carry = run_fit(
            BASE,
            faults=str(SCENARIOS / name), failure_policy="carry", quorum=quorum
        )
        redispatch = run_fit(
            BASE,
            faults=str(SCENARIOS / name),
            failure_policy="redispatch",
            quorum=quorum,
            **DISTRIBUTED,
        )
        assert_same_fit(carry, redispatch)


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
        reference = run_fit(BASE, **faulty)
        killer = KillHostAtRound(host=1, at_round=1)
        killed = run_fit(BASE, callbacks=[killer], **faulty, **DISTRIBUTED)
        assert killer.killed
        assert_same_fit(reference, killed)

    def test_mid_flush_peer_kill_recovers_bitwise(self):
        # SIGKILL host 1 inside the Gram flush, while host 0 pulls its
        # stale rows from it: the flush fails, the fleet respawns host 1
        # and replays its rows from the replica, and the flush runs again
        # with host 1's new port.  Uploads land through the coordinator
        # (serial execution), so the replica holds every row — a leg
        # trained on the dead host would be lost — and the run is bitwise
        # the reference, as with the round-boundary kill.
        reference = run_fit(BASE, failure_policy="carry")
        killer = KillPeerMidFlush(host=1, at_round=1)
        killed = run_fit(
            BASE, callbacks=[killer], failure_policy="carry",
            backend="distributed", hosts=HOSTS, execution="serial",
        )
        assert killer.killed
        assert_same_fit(reference, killed)
        # Shutting the fleet down leaves no listener and no connection
        # on any host's port: not the coordinator's, not host to host.
        cluster = get_cluster(HOSTS)
        ports = set(cluster.peer_ports())
        mine = {
            chan._sock.getsockname()[1]
            for handle in cluster.handles
            for chan in handle._channels.values()
            if chan._sock is not None
        }
        open_before = _tcp_on(ports)
        assert {"0A"} <= {state for state, _l, _r in open_before}
        # A connection between two hosts' sockets that the coordinator
        # does not own: host 0 pulling from the respawned host 1.
        assert any(
            state == "01" and local not in mine and local not in ports
            for state, local, _r in open_before
        )
        shutdown_clusters()
        assert _tcp_on(ports) == []

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
        reference = run_fit(BASE)
        killed = run_fit(
            BASE,
            callbacks=[InjectHook(KillOwnHostOnce(sentinel=str(sentinel)))],
            failure_policy="redispatch",
            leg_retries=1,
            **DISTRIBUTED,
        )
        assert sentinel.exists()  # a host really died mid-leg
        assert_same_fit(reference, killed, comm=False)
        assert sum(r.comm_down_params for r in killed.history.records) > sum(
            r.comm_down_params for r in reference.history.records
        )
