"""Transport faults and failover at the RPC/cluster layer.

Three contracts under test, bottom-up:

* :class:`RPCChannel` reconnects and resends exactly once on a
  transport error — whether the request never left or the reply died
  halfway — and surfaces :class:`DistributedError` when the retry
  fails too.  Ops must therefore be idempotent, which the row
  protocol's absolute-offset writes are.
* Teardown is idempotent at every level: a handle, a cluster and the
  process-wide pool can each be closed twice without raising, and a
  closed handle refuses to mint new channels.
* A replicated storage survives a SIGKILLed shard host: the fleet is
  respawned, the mirror replayed, and rows whose latest write died
  with the host are *guarded*, not silently served stale.
"""

import os
import signal
import threading

import numpy as np
import pytest

from repro.distributed import DistributedError
from repro.distributed.cluster import HostCluster, get_cluster, shutdown_clusters
from repro.distributed.storage import DistributedStorage
from repro.faults.inject import flaky_transport
from repro.utils import cpu


@pytest.fixture(scope="module")
def cluster():
    return get_cluster(2)


def _unheld_blas_threads():
    """The coordinator's BLAS width with no fleet owned — what a host's
    share is cut from; ``cpu.blas_threads()`` reads the coordinator's
    own reduced share while a cluster is live."""
    return max((width for _set, width in cpu._INHERITED), default=cpu.blas_threads())


@pytest.fixture()
def chan(cluster):
    return cluster.handles[0].channel("data")


class TestReconnect:
    def test_request_side_failure_reconnects_and_resends(self, chan):
        retries = chan.transport_retries
        pings = chan.op_counts.get(("ping", None), 0)
        with flaky_transport(chan, "request", failures=1) as state:
            reply, _, _ = chan.call("ping")
        assert reply["index"] == 0
        assert state["remaining"] == 0  # the injected failure really fired
        assert chan.transport_retries - retries == 1
        assert chan.op_counts.get(("ping", None), 0) - pings == 1

    def test_reply_side_failure_retries_idempotently(self, chan):
        # The host executed the op before the reply died, so the resend
        # runs it twice — absolute-offset writes make that harmless.
        meta = {"buffer": "rpcflaky", "rows": 4, "p": 3, "dtype": "<f8"}
        chan.call("alloc", meta)
        try:
            values = np.arange(12, dtype=np.float64).reshape(4, 3)
            with flaky_transport(chan, "reply", failures=1) as state:
                chan.call("write_rows", {"buffer": "rpcflaky", "lo": 0},
                          {"values": values})
            assert state["remaining"] == 0
            _, arrays, _ = chan.call(
                "row_block", {"buffer": "rpcflaky", "lo": 0, "hi": 4}
            )
            np.testing.assert_array_equal(arrays["block"], values)
        finally:
            chan.call("free", {"buffer": "rpcflaky"})

    def test_replayed_alloc_keeps_a_live_shard(self, chan):
        # An alloc rides a blend request and is replayed by a resend or
        # a recovery: a second alloc of a live buffer must not zero it.
        meta = {"buffer": "rpcalloc", "rows": 2, "p": 3, "dtype": "<f4"}
        values = np.arange(6, dtype=np.float32).reshape(2, 3)
        chan.call("alloc", meta)
        try:
            chan.call("write_rows", {"buffer": "rpcalloc", "lo": 0}, {"values": values})
            with flaky_transport(chan, "reply", failures=1) as state:
                chan.call("alloc", meta)
            assert state["remaining"] == 0  # it ran twice
            _, arrays, _ = chan.call(
                "row_block", {"buffer": "rpcalloc", "lo": 0, "hi": 2}
            )
            np.testing.assert_array_equal(arrays["block"], values)
        finally:
            chan.call("free", {"buffer": "rpcalloc"})

    def test_exhausted_budget_raises_distributed_error(self, chan):
        retries = chan.transport_retries
        with flaky_transport(chan, "request", failures=2):
            with pytest.raises(DistributedError, match="one\\s+reconnect attempt"):
                chan.call("ping")
        assert chan.transport_retries - retries == 2
        # The channel is healthy again once the chaos context exits.
        reply, _, _ = chan.call("ping")
        assert reply["index"] == 0


class TestFailover:
    def test_replicated_storage_survives_host_kill(self):
        cluster = HostCluster(2)
        try:
            data = np.arange(24, dtype=np.float64).reshape(6, 4)
            storage = DistributedStorage.from_array(
                data, cluster=cluster, replicate=True
            )
            assert storage.replicated
            victim = cluster.handles[0]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            # The next read transparently respawns the host and replays
            # the mirror: the full matrix comes back bit-identical.
            np.testing.assert_array_equal(storage.row_block(0, 6), data)
            # The respawned host's inventory matches the coordinator's.
            reply, _, _ = cluster.call(0, "stats")
            assert storage.buffer_id in reply["buffers"]
        finally:
            cluster.shutdown()

    def test_unreplicated_storage_still_fails_loudly(self):
        cluster = HostCluster(2)
        try:
            data = np.arange(24, dtype=np.float64).reshape(6, 4)
            storage = DistributedStorage.from_array(data, cluster=cluster)
            assert storage.ensure_fleet() == []  # nothing to replay from
            cluster.handles[0].process.kill()
            cluster.handles[0].process.join(timeout=5.0)
            with pytest.raises(DistributedError):
                storage.row_block(0, 6)
        finally:
            cluster.shutdown()

    def test_rows_written_host_side_are_lost_not_stale(self):
        cluster = HostCluster(2)
        try:
            data = np.arange(24, dtype=np.float64).reshape(6, 4)
            storage = DistributedStorage.from_array(
                data, cluster=cluster, replicate=True
            )
            # A training leg landed host-side on row 0: the mirror is
            # now behind that host.
            storage.note_remote_write(0)
            budget = cluster.call(0, "stats")[0]["blas_threads"]
            if budget is not None:
                assert budget == min(_unheld_blas_threads(), cpu.blas_share(2))
            coordinator = cpu.blas_threads()
            cluster.handles[0].process.kill()
            cluster.handles[0].process.join(timeout=5.0)
            assert storage.ensure_fleet() == [0]
            assert storage.lost_rows() == [0]
            # The replacement runs on the CPU budget the original had,
            # and the respawn moved the coordinator's share neither way.
            assert cluster.call(0, "stats")[0]["blas_threads"] == budget
            assert cpu.blas_threads() == coordinator
            # Reading the lost row is refused — never a stale state.
            with pytest.raises(DistributedError, match="lost"):
                storage.row_block(0, 2)
            with pytest.raises(DistributedError, match="lost"):
                storage.gather_rows(np.array([0]))
            # Rows on the surviving span were never at risk.
            spans = storage.host_spans()
            lo = spans[1][0]
            np.testing.assert_array_equal(storage.row_block(lo, 6), data[lo:])
            # A fresh coordinator write rehabilitates the row.
            fresh = np.full((1, 4), 7.5)
            storage.write_rows(0, fresh)
            assert storage.lost_rows() == []
            np.testing.assert_array_equal(storage.row_block(0, 1), fresh)
        finally:
            cluster.shutdown()


class TestIdempotentTeardown:
    def test_handle_and_cluster_close_twice(self):
        cluster = HostCluster(1)
        handle = cluster.handles[0]
        assert handle.channel("data") is handle.channel("data")
        cluster.shutdown()
        cluster.shutdown()  # second shutdown is a no-op
        handle.close()  # already closed by shutdown — still a no-op
        assert not handle.process.is_alive()
        with pytest.raises(DistributedError, match="closed"):
            handle.channel("data")

    def test_shutdown_gives_up_on_a_stopped_host(self):
        """SIGSTOP: alive, SIGTERM stays pending, requests pile up unread
        — the host is asked under a deadline, then killed and reaped."""
        cluster = HostCluster(1)
        process = cluster.handles[0].process
        try:
            cluster.call(0, "ping")
            os.kill(process.pid, signal.SIGSTOP)
            done = threading.Thread(target=cluster.shutdown, daemon=True)
            done.start()
            done.join(timeout=5.0)
            assert not done.is_alive(), "shutdown() still blocked after 5 s"
            with pytest.raises(ProcessLookupError):
                os.kill(process.pid, 0)
        finally:
            process.kill()

    def test_shutdown_clusters_twice_and_pool_recreates(self):
        first = get_cluster(1)
        shutdown_clusters()
        shutdown_clusters()
        assert not first.alive()
        second = get_cluster(1)
        assert second is not first and second.alive()


class TestCoordinatorShare:
    """While a fleet is owned the coordinator's BLAS pool holds what the
    hosts leave (``repro.utils.cpu.reserve_for_children``); the width
    it had comes back when the last fleet is shut down."""

    @pytest.fixture()
    def inherited(self, inherited_blas_threads, monkeypatch):
        monkeypatch.setattr(cpu, "usable_cores", lambda: 8)
        return inherited_blas_threads

    def test_held_while_a_cluster_lives_and_restored_by_shutdown(self, inherited):
        cluster = HostCluster(3)  # hosts 2 threads each: 8 - 6 = 2 left
        try:
            assert cpu.blas_threads() == min(inherited, 2)
            assert cluster.call(1, "stats")[0]["blas_threads"] == min(inherited, 2)
        finally:
            cluster.shutdown()
        assert cpu.blas_threads() == inherited
        cluster.shutdown()  # the no-op second shutdown restores nothing twice
        assert cpu.blas_threads() == inherited

    def test_failover_respawn_moves_neither_share(self, inherited):
        """The replacement host is forked from a coordinator that is
        down to one thread; its share is still cut from the full width."""
        cluster = HostCluster(2)  # 4 threads each (at most), 1 left
        try:
            assert cpu.blas_threads() == 1
            budget = cluster.call(0, "stats")[0]["blas_threads"]
            assert budget == min(inherited, 4)
            cluster.handles[0].process.kill()
            cluster.handles[0].process.join(timeout=5.0)
            assert cluster.recover() == [0]
            assert cluster.call(0, "stats")[0]["blas_threads"] == budget
            assert cpu.blas_threads() == 1
        finally:
            cluster.shutdown()
        assert cpu.blas_threads() == inherited

    def test_pooled_clusters_hold_the_minimum_until_shutdown_clusters(self, inherited):
        get_cluster(3)
        assert cpu.blas_threads() == min(inherited, 2)
        two = get_cluster(2)  # 4 threads each: nothing left, so 1
        assert cpu.blas_threads() == 1
        # A dead pooled fleet is replaced: its claim goes and comes back.
        two.handles[0].process.kill()
        two.handles[0].process.join(timeout=5.0)
        replacement = get_cluster(2)
        assert replacement is not two
        assert cpu.blas_threads() == 1
        assert replacement.call(1, "stats")[0]["blas_threads"] == min(inherited, 4)
        shutdown_clusters()
        assert cpu.blas_threads() == inherited

    def test_shutdown_that_raises_still_restores(self, inherited, monkeypatch):
        cluster = HostCluster(2)
        assert cpu.blas_threads() == 1
        handle = cluster.handles[1]
        close = handle.close

        def broken():
            raise OSError("socket teardown failed")

        monkeypatch.setattr(handle, "close", broken)
        try:
            with pytest.raises(OSError, match="teardown"):
                cluster.shutdown()
            assert cpu.blas_threads() == inherited
        finally:
            close()

    def test_inherited_operator_cap_stays(self, inherited):
        pools = [(set_threads, int(get())) for set_threads, get in cpu._controls()]
        cpu.limit_blas_threads(1)  # as OPENBLAS_NUM_THREADS=1 would have
        try:
            cluster = HostCluster(3)
            try:
                assert cpu.blas_threads() == 1
                assert cluster.call(0, "stats")[0]["blas_threads"] == 1
            finally:
                cluster.shutdown()
            assert cpu.blas_threads() == 1  # nothing widens
        finally:
            for set_threads, before in pools:
                set_threads(before)
