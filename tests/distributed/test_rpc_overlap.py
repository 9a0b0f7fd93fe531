"""Overlapped requests on one :class:`RPCChannel`.

Concurrent callers write their frames back to back and read replies in
ticket order; a transport failure drops the connection once and
re-sends every unanswered request exactly once.  The exact resend
accounting runs against an in-test host (so it can crash a connection
at a chosen request); the SIGKILL and leg-drain cases run on real
shard-host processes.
"""

import os
import select
import signal
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.distributed import DistributedError
from repro.distributed.cluster import HostCluster, get_cluster
from repro.distributed.rpc import RPCChannel, serve_connection
from repro.faults.inject import DelaySpec
from repro.fl.callbacks import ServerCallback
from repro.fl.config import FLConfig
from repro.fl.simulation import FLSimulation


class FakeHost:
    """A listener serving ``dispatch(conn, op, meta)`` per connection."""

    def __init__(self, dispatch):
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.address = self.listener.getsockname()
        self.connections = 0
        self._dispatch = dispatch
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with conn:
            serve_connection(
                conn,
                lambda op, meta, arrays, blob: (self._dispatch(conn, op, meta), {}, b""),
            )

    def close(self):
        self.listener.close()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.002)


def _in_flight(chan):
    return len(chan._inflight)


def _stopped(pid):
    """Whether every thread of ``pid`` has entered SIGSTOP's group stop.

    ``os.kill`` returns before a thread running on another core stops,
    and such a thread may still answer a request sent meanwhile.
    """
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/stat") as fh:
            if fh.read().rsplit(")", 1)[1].split()[0] != "T":
                return False
    return True


@pytest.fixture()
def pool():
    with ThreadPoolExecutor(max_workers=8) as executor:
        yield executor


class TestOverlap:
    @pytest.mark.parametrize(
        "repeats", [4, pytest.param(100, marks=pytest.mark.slow)]
    )
    def test_concurrent_callers_get_their_own_replies(self, pool, repeats):
        chan = get_cluster(2).handles[0].channel("data")
        rows = np.arange(32 * 3, dtype=np.float64).reshape(32, 3)
        meta = {"buffer": "overlap", "rows": 32, "p": 3, "dtype": "<f8"}
        chan.call("alloc", meta)
        try:
            chan.call("write_rows", {"buffer": "overlap", "lo": 0}, {"values": rows})

            def fetch(i):
                _, arrays, _ = chan.call(
                    "row_block", {"buffer": "overlap", "lo": i, "hi": i + 1}
                )
                return arrays["block"][0].copy()

            # 8 threads on 2 cores, switching every 10 µs: a reply handed
            # to the wrong ticket shows as a wrong row.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                got = list(pool.map(fetch, list(range(32)) * repeats, timeout=60))
            finally:
                sys.setswitchinterval(interval)
            np.testing.assert_array_equal(got, np.tile(rows, (repeats, 1)))
            assert not chan._inflight
        finally:
            chan.call("free", {"buffer": "overlap"})

    def test_next_request_is_on_the_wire_before_the_reply(self, pool):
        # The host finds its next request in the socket buffer while it
        # is still serving the current one: no coordinator round trip
        # between two legs of one host.
        def dispatch(conn, op, meta):
            if op == "first":
                ready, _, _ = select.select([conn], [], [], 5.0)
                return {"peer_waiting": bool(ready)}
            return {}

        host = FakeHost(dispatch)
        try:
            chan = RPCChannel(host.address, "fake host")
            first = pool.submit(chan.call, "first")
            _wait_for(lambda: _in_flight(chan) == 1)
            second = pool.submit(chan.call, "second")
            assert first.result(timeout=10)[0]["peer_waiting"]
            second.result(timeout=10)
            chan.close()
        finally:
            host.close()


class TestFailureWithRequestsInFlight:
    def _crashing_host(self, crashes):
        """Answers everything, except that the first ``crashes`` arrivals
        of op ``b`` kill their connection instead (a host dying with
        ``b`` and whatever follows it unanswered)."""
        served = []
        gate = threading.Event()

        def dispatch(conn, op, meta):
            served.append(op)
            if op == "a":
                gate.wait(5.0)
            if op == "b" and served.count("b") <= crashes:
                conn.shutdown(socket.SHUT_RDWR)
            return {"echo": op}

        return FakeHost(dispatch), served, gate

    def _three_in_flight(self, chan, pool, gate):
        futures = []
        for n, op in enumerate("abc"):
            futures.append(pool.submit(chan.call, op))
            _wait_for(lambda: _in_flight(chan) == n + 1)
        gate.set()
        return futures

    def test_one_reconnect_one_resend_per_unanswered_request(self, pool):
        host, served, gate = self._crashing_host(crashes=1)
        try:
            chan = RPCChannel(host.address, "fake host")
            replies = [
                f.result(timeout=10)[0]["echo"]
                for f in self._three_in_flight(chan, pool, gate)
            ]
            assert replies == ["a", "b", "c"]  # everyone got their own reply
            assert chan.transport_retries == 1  # one drop served all three
            assert host.connections == 2
            # The answered request never ran again; each unanswered one
            # was sent once more (c's first frame died unread).
            assert served == ["a", "b", "b", "c"]
            assert {k[0]: n for k, n in chan.op_counts.items()} == {
                "a": 1, "b": 1, "c": 1,
            }
            chan.close()
        finally:
            host.close()

    def test_second_failure_raises_naming_the_host(self, pool):
        host, served, gate = self._crashing_host(crashes=2)
        try:
            chan = RPCChannel(host.address, "fake host 0/1")
            a, b, c = self._three_in_flight(chan, pool, gate)
            assert a.result(timeout=10)[0]["echo"] == "a"
            for future in (b, c):  # both rode the replacement connection
                with pytest.raises(DistributedError, match="fake host 0/1"):
                    future.result(timeout=10)
            assert served.count("a") == 1
            assert chan.transport_retries == 2
            # The channel is usable again: a new request starts afresh.
            assert chan.call("d")[0]["echo"] == "d"
            chan.close()
        finally:
            host.close()

    def test_sigkilled_host_fails_every_request_after_one_reconnect(self, pool):
        cluster = HostCluster(1)
        try:
            handle = cluster.handles[0]
            chan = handle.channel("data")
            chan.call("ping")
            os.kill(handle.process.pid, signal.SIGSTOP)  # requests pile up unread
            _wait_for(lambda: _stopped(handle.process.pid))
            futures = [pool.submit(chan.call, "ping") for _ in range(4)]
            _wait_for(lambda: _in_flight(chan) == 4)
            before = chan.transport_retries
            handle.process.kill()
            for future in futures:
                with pytest.raises(DistributedError, match="shard host 0/1"):
                    future.result(timeout=10)
            # One drop plus one refused reconnect — not one pair per request.
            assert chan.transport_retries - before == 2
        finally:
            # If anything above raised before the kill, the host is still
            # stopped: reap it here instead of leaning on shutdown's deadlines.
            cluster.handles[0].process.kill()
            cluster.shutdown()


class _SlowLegs(ServerCallback):
    """Make the legs of upload rows 2 and 3 (both on host 1) sleep, so a
    short ``leg_timeout`` fires while they are written to their host
    and unanswered — one being served, one waiting in its socket."""

    def on_round_start(self, server, round_idx):
        original = server.dispatch

        def dispatch(active):
            plans = original(active)
            for plan in plans:
                if plan.context["row"] >= 2:
                    plan.loss_hook = DelaySpec(seconds=0.08, once=True)
            return plans

        server.dispatch = dispatch


def test_timed_out_distributed_legs_are_drained_not_cancelled():
    # A leg whose request is written cannot be cancelled: _drain waits
    # for its reply, so when collect() returns (the slow legs timed out
    # and were carried) no host is still training into the reused
    # upload buffer or about to advance a client RNG.
    sim = FLSimulation(
        FLConfig(
            method="fedcross", dataset="synth_cifar10", model="logreg",
            num_clients=4, participation=1.0, rounds=1, local_epochs=1,
            batch_size=16, seed=5, backend="distributed", hosts=2,
            execution="distributed", leg_timeout=0.03, failure_policy="carry",
            quorum=0.5, dataset_params={"samples_per_client": 16, "num_test": 20},
        ),
        callbacks=[_SlowLegs()],
    )
    server = sim.server
    started = time.monotonic()
    sim.run()
    failures = server.last_leg_failures
    assert sorted(f.row for f in failures) == [2, 3]
    assert all(f.kind == "timeout" and f.drained for f in failures)
    # Both sleeps were waited out (served one after the other), not
    # abandoned at the 0.03 s deadline.
    assert time.monotonic() - started >= 0.16
    cluster = server.uploads.storage.cluster
    assert all(not h.channel("exec")._inflight for h in cluster.handles)
    uploads = np.array(server.uploads.matrix)
    rngs = [c.rng.bit_generator.state for c in server.clients]
    time.sleep(0.12)  # longer than a leg: a zombie would land by now
    np.testing.assert_array_equal(np.asarray(server.uploads.matrix), uploads)
    assert [c.rng.bit_generator.state for c in server.clients] == rngs
