"""Runtime behaviour of the shard-actor fleet: failure surfacing,
communication billed as on every backend, and the co-location acceptance
property (trained upload rows never transit the coordinator).
"""

import socket
import threading

import numpy as np
import pytest

from _fits import assert_same_fit, run_fit
from repro.distributed import DistributedError
from repro.distributed.cluster import get_cluster, shutdown_clusters
from repro.faults.inject import KillPeerMidFlush
from repro.fl.callbacks import ServerCallback
from repro.fl.comm import analytic_round_cost
from repro.fl.config import FLConfig
from repro.fl.hooks import HookSpec
from repro.fl.simulation import FLSimulation
from repro.utils import cpu

HOSTS = 2


class LockedSpec(HookSpec):
    """A hook spec that cannot be pickled: it holds a lock."""

    def __init__(self) -> None:
        self.lock = threading.Lock()

    def build(self, state):
        return lambda model, logits, targets: None


def _config(method="fedcross", execution="distributed", rounds=2):
    return FLConfig(
        method=method,
        dataset="synth_cifar10",
        model="mlp",
        heterogeneity=0.5,
        num_clients=4,
        participation=1.0,
        rounds=rounds,
        local_epochs=1,
        batch_size=16,
        eval_every=1,
        seed=13,
        backend="distributed",
        hosts=HOSTS,
        execution=execution,
        dataset_params={"samples_per_client": 20, "num_test": 40},
    )


class TestMeasuredLedger:
    """Distributed bills the analytic cost: the server's
    ``charge_round_communication`` is the ledger's one writer on every
    execution backend, so a distributed round's totals equal
    :func:`analytic_round_cost` exactly — FedCross moves K models each
    way, SCAFFOLD doubles both directions with its control variates."""

    @pytest.mark.parametrize("method", ["fedcross", "scaffold"])
    def test_measured_matches_analytic(self, method):
        sim = FLSimulation(_config(method=method))
        result = sim.run()
        k = sim.config.clients_per_round
        cost = analytic_round_cost(method, k, sim.server.model_size)
        assert result.history.records, "no rounds recorded"
        for record in result.history.records:
            assert record.comm_up_params == int(cost["up"]), method
            assert record.comm_down_params == int(cost["down"]), method

    def test_surcharge_is_billed_per_counted_leg(self):
        """SCAFFOLD's control variate rides only the legs that moved: a
        pre-dropped or carried leg received no variate, so each record
        is ``downs·(P+V)`` down and ``ups·(P+V)`` up on both backends
        (serial used to bill ``len(active)·V`` on top of the counted
        models, distributed only what its legs carried)."""

        class Counts(ServerCallback):
            def __init__(self):
                self.legs = []

            def on_round_end(self, server, record):
                faults = server.round_faults
                self.legs.append((faults.downs, faults.ups))

        base = FLConfig(
            method="scaffold",
            model="logreg",
            num_clients=8,
            k_active=4,
            rounds=3,
            local_epochs=1,
            seed=7,
            faults={"dropout": 0.3},
            failure_policy="carry",
            quorum=0.25,
            dataset_params={"samples_per_client": 20, "num_test": 40},
        )
        ledgers = []
        for config in (
            base,
            base.replace(backend="distributed", hosts=HOSTS, execution="distributed"),
        ):
            counts = Counts()
            sim = FLSimulation(config, callbacks=[counts])
            records = sim.run().history.records
            leg = sim.server.model_size + sim.server._c_global.size
            ledger = [(r.comm_down_params, r.comm_up_params) for r in records]
            assert ledger == [(downs * leg, ups * leg) for downs, ups in counts.legs]
            assert any(downs < config.clients_per_round for downs, _ in counts.legs)
            ledgers.append(ledger)
        assert ledgers[0] == ledgers[1]


class TestNoCoordinatorTransit:
    """The acceptance properties of co-located execution: each leg's
    trained state is packed into the shard host that owns its upload
    row — the ``P`` trained floats never ride a socket back through
    the coordinator — and a sync FedCross leg starts from its host's
    own pool row, so the dispatched row never rides one either."""

    def test_upload_rows_written_host_side_only(self):
        cluster = get_cluster(HOSTS)

        def _counts(purpose):
            merged = {}
            for handle in cluster.handles:
                for key, n in handle.channel(purpose).op_counts.items():
                    merged[key] = merged.get(key, 0) + n
            return merged

        def _received(purpose):
            return sum(h.channel(purpose).scalars_received for h in cluster.handles)

        def _sent(purpose):
            return sum(h.channel(purpose).scalars_sent for h in cluster.handles)

        data_before = _counts("data")
        exec_before = _counts("exec")
        exec_received_before = _received("exec")
        exec_sent_before = _sent("exec")

        config = _config()
        sim = FLSimulation(config)
        server = sim.server
        dispatch = server.dispatch
        fetched = []

        def counted_dispatch(active):
            # row_block calls on the pool buffer while dispatch runs.
            key = ("row_block", server.pool.storage.buffer_id)
            before = _counts("data").get(key, 0)
            plans = dispatch(active)
            fetched.append(_counts("data").get(key, 0) - before)
            return plans

        server.dispatch = counted_dispatch
        sim.run()
        uploads = sim.server.uploads.storage.buffer_id
        k, rounds = sim.config.clients_per_round, sim.config.rounds

        def _delta(after, before, key):
            return after.get(key, 0) - before.get(key, 0)

        data_after = _counts("data")
        exec_after = _counts("exec")
        # Every leg trained exactly once, on an exec channel...
        assert _delta(exec_after, exec_before, ("train_leg", uploads)) == k * rounds
        # ...no upload row was ever pushed through a coordinator write...
        assert _delta(data_after, data_before, ("write_rows", uploads)) == 0
        assert _delta(data_after, data_before, ("fill_rows", uploads)) == 0
        # ...and nothing array-shaped came back on the exec channels at
        # all: train_leg replies are scalars plus RNG state only.
        assert _received("exec") - exec_received_before == 0
        # Dispatch read no pool row, and no leg request carried one:
        # every leg went to the host owning its pool row, by reference.
        assert fetched == [0] * rounds
        assert _sent("exec") - exec_sent_before == 0

    def test_data_channels_carry_dots_and_accumulators_only(self):
        # What a clean FedCross round brings back over the data channels:
        # the Gram flush's dots (each pair of the K uploads once) and the
        # precise mean's float64 accumulator from each host — no pool or
        # upload row.  The flush's stale rows and the blend's foreign
        # collaborators move host to host; relayed through the
        # coordinator, they brought 4 upload rows in a round here.
        cluster = get_cluster(HOSTS)

        def received():
            return sum(h.channel("data").scalars_received for h in cluster.handles)

        class Cut(ServerCallback):
            def __init__(self):
                self.last, self.rounds = None, []

            def on_round_start(self, server, round_idx):
                if self.last is None:
                    self.last = received()

            def on_round_end(self, server, record):
                now = received()
                self.rounds.append(now - self.last)
                self.last = now

        cut = Cut()
        sim = FLSimulation(_config(rounds=3), callbacks=[cut])
        sim.run()
        k, p = sim.config.clients_per_round, sim.server.model_size
        assert cut.rounds == [k * (k + 1) // 2 + HOSTS * p] * 3

    def test_a_row_owned_by_another_host_ships_as_bytes(self):
        # Upload row r trains from pool row r + K/2: every leg's pool
        # row lives on the other host, so the row must ride the
        # train_leg request — and the fit must equal serial execution
        # from the same plans.
        cluster = get_cluster(HOSTS)

        def cross(server):
            dispatch = server.dispatch

            def crossed_dispatch(active):
                plans = dispatch(active)
                k = len(plans)
                by_row = {plan.context["row"]: plan.flat for plan in plans}
                for plan in plans:
                    plan.flat = by_row[(plan.context["row"] + k // 2) % k]
                return plans

            server.dispatch = crossed_dispatch

        def sent():
            return sum(h.channel("exec").scalars_sent for h in cluster.handles)

        before = sent()
        dist = run_fit(_config(), install=cross)
        shipped = sent() - before
        config = _config()
        p = sum(np.size(value) for value in dist.result.final_state.values())
        assert shipped == config.clients_per_round * config.rounds * p
        assert_same_fit(dist, run_fit(_config(execution="serial"), install=cross))


class TestFaultSurfacing:
    """Satellite 2: a shard host dying mid-fit must surface as a clean
    :class:`DistributedError` naming the dead shard host — never a hang
    or a raw ``ConnectionResetError``."""

    @pytest.mark.parametrize("execution", ["serial", "distributed"])
    def test_host_killed_between_rounds(self, execution):
        cluster = get_cluster(HOSTS)

        class KillHostAfterFirstRound(ServerCallback):
            def __init__(self):
                self.rounds_seen = 0

            def on_round_end(self, server, record):
                self.rounds_seen += 1
                if self.rounds_seen == 1:
                    handle = cluster.handles[1]
                    handle.process.kill()
                    handle.process.join(timeout=5)

        try:
            sim = FLSimulation(
                _config(execution=execution, rounds=3),
                callbacks=[KillHostAfterFirstRound()],
            )
            with pytest.raises(DistributedError, match="shard host 1/2"):
                sim.run()
        finally:
            # Leave no half-dead fleet in the pool for later tests.
            shutdown_clusters()

    def test_peer_killed_mid_flush_is_named(self):
        """Host 1 dies inside the Gram flush, after answering its own
        share: host 0's pull of host 1's stale rows fails, and the error
        names host 1 — host 0, the host that was asked, is healthy."""
        killer = KillPeerMidFlush(host=1, at_round=1)
        try:
            sim = FLSimulation(_config(rounds=3), callbacks=[killer])
            with pytest.raises(DistributedError, match="shard host 1/2") as info:
                sim.run()
            assert killer.killed
            assert "shard host 0/2" not in str(info.value)
            assert "gram_dots" in str(info.value)
        finally:
            shutdown_clusters()

    def test_dead_host_at_submit_fails_every_leg_of_the_group(self):
        """A fleet-level dispatch failure (the trainer broadcast hits a
        dead host) comes back from ``submit_group`` as one failed future
        per leg, so every consumer of the group — the captured stream
        and the async driver alike — sees per-leg failures it can
        recover from, instead of the submission aborting the fit."""
        from repro.faults import LegFailure

        try:
            sim = FLSimulation(_config())
            server = sim.server
            backend = server.executor
            active = server.select_cohort()
            plans = server.dispatch(active)
            rows = [plan.context.get("row", i) for i, plan in enumerate(plans)]
            uploads = server._round_uploads(len(active))
            handle = uploads.storage.cluster.handles[1]
            handle.process.kill()
            handle.process.join(timeout=5)

            group = backend.submit_group(
                server.trainer, active, plans, rows, uploads
            )
            assert len(group.futures) == len(plans)
            for future in group.futures:
                assert isinstance(future.exception(timeout=5), DistributedError)
            out = dict(
                backend.run_streaming_captured(
                    server.trainer, active, plans, rows, uploads
                )
            )
            assert sorted(out) == list(range(len(plans)))
            for i, failure in out.items():
                assert isinstance(failure, LegFailure) and failure.retryable
                assert failure.client_id == active[i].client_id
                assert "DistributedError" in failure.message
                assert "shard host 1/2" in failure.message
        finally:
            shutdown_clusters()

    def test_unpicklable_spec_raises_before_any_leg_starts(self, monkeypatch):
        """``submit_group`` builds every leg's hook blob before the first
        submit: a spec that cannot be pickled on plan 2 raises, and no
        leg — not even plans 0 and 1 — has gone to a host."""
        sim = FLSimulation(_config(method="fedavg"))
        server = sim.server
        backend = server.executor
        active = server.select_cohort()
        plans = server.dispatch(active)
        plans[2].loss_hook = LockedSpec()
        rows = [plan.context.get("row", i) for i, plan in enumerate(plans)]
        uploads = server._round_uploads(len(active))
        calls = []
        monkeypatch.setattr(
            uploads.storage.cluster, "train_leg", lambda *args: calls.append(args)
        )
        try:
            with pytest.raises(TypeError, match="pickle"):
                backend.submit_group(server.trainer, active, plans, rows, uploads)
        finally:
            backend.close()  # waits out any leg that did start
        assert calls == []

    def test_remote_exception_carries_type_and_no_retry(self):
        cluster = get_cluster(HOSTS)
        with pytest.raises(DistributedError, match="unknown op"):
            cluster.call(0, "no_such_op")
        with pytest.raises(DistributedError, match="KeyError"):
            cluster.call(0, "row_block", {"buffer": "nope", "lo": 0, "hi": 1})

    def test_transport_error_recovers_with_one_reconnect(self):
        """A broken socket with a live host recovers transparently:
        the channel reconnects once and replays the idempotent op."""
        cluster = get_cluster(HOSTS)
        channel = cluster.handles[0].channel("data")
        reply, _, _ = channel.call("ping")
        assert reply["index"] == 0
        channel._sock.shutdown(socket.SHUT_RDWR)  # sever under the lock's nose
        reply, _, _ = channel.call("ping")
        assert reply["index"] == 0

    def test_dead_pooled_cluster_is_replaced(self):
        first = get_cluster(HOSTS)
        first.handles[0].process.kill()
        first.handles[0].process.join(timeout=5)
        assert not first.alive()
        second = get_cluster(HOSTS)
        assert second is not first
        assert second.alive()
        reply, _, _ = second.call(0, "ping")
        assert reply["index"] == 0


class TestCpuBudget:
    """Shard hosts divide the coordinator's usable cores between their
    BLAS pools (``repro.utils.cpu``): ``min(inherited, cores // hosts)``
    each, visible through the ``stats`` op."""

    @staticmethod
    def _host_threads(cluster):
        return [
            cluster.call(i, "stats")[0]["blas_threads"]
            for i in range(cluster.num_hosts)
        ]

    def test_every_host_reports_its_share(self):
        inherited = cpu.blas_threads()
        if inherited is None:
            pytest.skip("no known BLAS loaded in this interpreter")
        expected = min(inherited, cpu.blas_share(HOSTS))
        assert self._host_threads(get_cluster(HOSTS)) == [expected] * HOSTS

    def test_more_hosts_than_cores_means_one_thread_each(self, monkeypatch):
        from repro.distributed.cluster import HostCluster

        monkeypatch.setattr(cpu, "usable_cores", lambda: 2)
        cluster = HostCluster(3)
        try:
            assert set(self._host_threads(cluster)) <= {1, None}
        finally:
            cluster.shutdown()
