"""The distributed data path: scalars and indices on the wire, not rows.

Three conversations of a round, each against its single-node twin:

* the Gram on a reducing storage is *marked* on upload and *reduced*
  on read — equal to the eager dense tracker after every read;
* ``cross_aggregate`` (1-D ``co``) blends on the hosts — equal to the
  blocked coordinator-side protocol byte for byte;
* dispatch reads no state at all (a leg starts from its host's own
  pool row), and ``states()`` reads its K states in one fetch per host.

All on the pooled 1–3 host fleets (operands are short, so OpenBLAS
never splits a dot and host/coordinator thread caps cannot move a bit).
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.gram import GramTracker
from repro.core.pool import PoolBuffer
from repro.distributed.cluster import HostCluster, get_cluster
from repro.distributed.storage import DistributedStorage
from repro.fl.callbacks import ServerCallback
from repro.fl.config import FLConfig
from repro.fl.simulation import FLSimulation, run_simulation

SHAPES = {"w": (4, 3), "b": (5,)}


def _state(rng, dtype=np.float32):
    return {k: rng.standard_normal(s).astype(dtype) for k, s in SHAPES.items()}


def _pair(states, hosts, dtype=np.float32, **options):
    dense = PoolBuffer.from_states(states, dtype=dtype)
    dist = PoolBuffer.from_states(
        states, dtype=dtype, backend="distributed",
        backend_options={"hosts": hosts, **options},
    )
    return dense, dist


def _data_calls(cluster, purpose="data"):
    return sum(
        n for h in cluster.handles for n in h.channel(purpose).op_counts.values()
    )


class TestDeferredGram:
    @pytest.mark.parametrize("keys", [None, ("w",)], ids=["unmasked", "masked"])
    @pytest.mark.parametrize(
        "hosts,k,steps",
        [(1, 4, 16), (2, 5, 20), (3, 7, 28), (3, 2, 8),
         pytest.param(3, 16, 600, marks=pytest.mark.slow)],
    )
    def test_equals_eager_dense_after_every_read(self, hosts, k, steps, keys):
        rng = np.random.default_rng(100 * hosts + k)
        dense, dist = _pair([_state(rng) for _ in range(k)], hosts)
        eager = GramTracker(dense, param_keys=keys)
        lazy = GramTracker(dist, param_keys=keys)
        cluster = dist.storage.cluster
        for step in range(steps):
            # Random order, rows written twice in a row, reads between
            # updates (the async landing pattern) and bursts without.
            i = int(rng.integers(k))
            for _ in range(1 + (step % 3 == 0)):
                fresh = _state(rng)
                dense.set_state(i, fresh)
                dist.set_state(i, fresh)
                eager.update_row(i)
                before = _data_calls(cluster)
                lazy.update_row(i)
                assert _data_calls(cluster) == before  # marking is free
            if rng.random() < 0.5:
                np.testing.assert_array_equal(lazy.gram, eager.gram)
        np.testing.assert_array_equal(lazy.gram, eager.gram)
        np.testing.assert_array_equal(lazy.similarity(), eager.similarity())
        assert lazy.updates == eager.updates
        assert lazy._image is None  # reducing storages never get an image

    def test_every_read_path_flushes(self):
        rng = np.random.default_rng(3)
        dense, dist = _pair([_state(rng) for _ in range(5)], 2)
        reads = {
            "norms": lambda t: t.norms,
            "similarity": lambda t: t.similarity(),
            "select_among": lambda t: t.select_among(0, range(5)),
            "cross_aggregated": lambda t: t.cross_aggregated(
                np.array([1, 2, 3, 4, 0]), 0.9
            ).gram,
            "release": lambda t: (t.release(), t._gram)[1],
        }
        for name, read in reads.items():
            eager, lazy = GramTracker(dense), GramTracker(dist)
            for i in range(5):
                eager.update_row(i)
                lazy.update_row(i)
            np.testing.assert_array_equal(read(lazy), read(eager), err_msg=name)
            assert not lazy._stale, name

    def test_full_flush_is_one_exchange_per_host_pair(self):
        rng = np.random.default_rng(4)
        _dense, dist = _pair([_state(rng) for _ in range(6)], 2)
        tracker = GramTracker(dist)
        cluster = dist.storage.cluster
        for i in range(6):
            tracker.update_row(i)
        before = _data_calls(cluster)
        tracker.gram
        # One gram_dots per host — its own pairs and its half of the
        # cross block, the peer rows pulled host to host — whatever K is.
        assert _data_calls(cluster) - before == 2

    @pytest.mark.parametrize("budget", [8, None], ids=["one_row_per_exchange", "default"])
    @pytest.mark.parametrize("hosts,k", [(2, 8), (3, 7)])
    def test_every_needed_pair_is_dotted_once(self, hosts, k, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setenv("REPRO_POOL_BLOCK_BYTES", str(budget))
        rng = np.random.default_rng(hosts * 10 + k)
        dense, dist = _pair([_state(rng) for _ in range(k)], hosts)
        storage = dist.storage
        seen = []
        pairs = storage._gram_pairs

        def recorded(stale, done, mask):
            left, right, dots = pairs(stale, done, mask)
            seen.extend(zip(left.tolist(), right.tolist()))
            return left, right, dots

        monkeypatch.setattr(storage, "_gram_pairs", recorded)
        for stale in ([k - 1], [0, 2, k - 2], list(range(k))):
            seen.clear()
            got = storage.gram_rows(np.array(stale), None)
            want = GramTracker.from_pool(dense).gram[stale]
            np.testing.assert_array_equal(got, want)
            needed = {tuple(sorted((i, j))) for i in stale for j in range(k)}
            # Every needed pair, each exactly once.
            assert sorted(tuple(sorted(pair)) for pair in seen) == sorted(needed)

    def test_full_flush_splits_each_cross_block_evenly(self, monkeypatch):
        # K = 8 on 2 hosts: a 4 x 4 cross block, 8 dots on each side.
        rng = np.random.default_rng(8)
        _dense, dist = _pair([_state(rng) for _ in range(8)], 2)
        cluster = dist.storage.cluster
        calls = []
        call_each = cluster.call_each

        def recorded(requests, purpose="data"):
            calls.append([(r[0], r[3]) for r in requests])
            return call_each(requests, purpose)

        monkeypatch.setattr(cluster, "call_each", recorded)
        tracker = GramTracker(dist)
        for i in range(8):
            tracker.update_row(i)
        tracker.gram
        (requests,) = calls
        # Per host: its own 4 rows' 10 pairs and its half of the 16, the
        # half dotted against peer rows it pulls (left < 0).
        assert [len(arrays["left"]) for _h, arrays in requests] == [18, 18]
        assert [int((arrays["left"] < 0).sum()) for _h, arrays in requests] == [8, 8]
        # Host 0 pulls 2 of host 1's stale rows, host 1 all 4 of host 0's.
        assert [arrays[f"pull{1 - h}"].tolist() for h, arrays in requests] == [
            [0, 1], [0, 1, 2, 3]
        ]

    def test_failed_flush_keeps_rows_marked(self, monkeypatch):
        rng = np.random.default_rng(5)
        _dense, dist = _pair([_state(rng) for _ in range(4)], 2)
        tracker = GramTracker(dist)
        tracker.update_row(1)

        def boom(rows, mask):
            raise RuntimeError("fleet away")

        monkeypatch.setattr(dist.storage, "gram_rows", boom)
        with pytest.raises(RuntimeError):
            tracker.gram
        monkeypatch.undo()
        fresh = GramTracker(dist)
        fresh.update_row(1)
        np.testing.assert_array_equal(tracker.gram, fresh.gram)


def _int_states(rng, k, dtype):
    return [
        {"w": rng.standard_normal(6).astype(dtype), "steps": np.int64(i * 3 + 1)}
        for i in range(k)
    ]


class TestHostSideBlend:
    # Spans of a 6-row pool on 2 hosts are (0, 3) and (3, 6).
    CO = {
        "all_local": [1, 2, 0, 4, 5, 3],
        "all_foreign": [3, 4, 5, 0, 1, 2],
        "self": [0, 1, 2, 3, 4, 5],
        "mixed": [5, 5, 1, 3, 0, 0],
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pattern", sorted(CO))
    def test_equals_blocked_protocol_bytewise(self, dtype, pattern):
        rng = np.random.default_rng(11)
        states = _int_states(rng, 6, dtype)
        # Signed zeros on both sides of a pair: 0.9 * -0.0 + 0.1 * 0.0.
        states[0]["w"][:2] = [-0.0, 0.0]
        states[3]["w"][:2] = [0.0, -0.0]
        states[5]["w"][:2] = [-0.0, -0.0]
        dense, dist = _pair(states, 2, dtype=dtype)
        co = np.array(self.CO[pattern])
        cluster = dist.storage.cluster
        chans = [h.channel("data") for h in cluster.handles]
        blends = sum(c.op_counts.get(("blend_rows", None), 0) for c in chans)
        on_hosts = dist.cross_aggregate(co, 0.9)
        assert sum(c.op_counts.get(("blend_rows", None), 0) for c in chans) == blends + 2
        # No blended row came back through a coordinator write.
        out = on_hosts.storage.buffer_id
        assert not any(c.op_counts.get(("write_rows", out)) for c in chans)
        # block_rows=1 is below a host's span: the hook declines and the
        # generic blocked row protocol runs on the same pool.
        blocked = dist.cross_aggregate(co, 0.9, block_rows=1)
        reference = dense.cross_aggregate(co, 0.9)
        expect = np.asarray(reference.matrix).tobytes()
        assert np.asarray(on_hosts.matrix).tobytes() == expect
        assert np.asarray(blocked.matrix).tobytes() == expect
        # Integer fields are carried from each model's own row.
        assert [int(on_hosts.as_state(i)["steps"]) for i in range(6)] == [
            int(s["steps"]) for s in states
        ]

    @pytest.mark.parametrize("hosts,k", [(1, 4), (3, 7), (3, 2)])
    def test_any_fleet_shape(self, hosts, k):
        rng = np.random.default_rng(hosts + k)
        dense, dist = _pair([_state(rng) for _ in range(k)], hosts)
        co = rng.integers(0, k, size=k)
        np.testing.assert_array_equal(
            np.asarray(dist.cross_aggregate(co, 0.7).matrix),
            np.asarray(dense.cross_aggregate(co, 0.7).matrix),
        )

    def test_blend_reuses_the_flushs_rows_until_a_write(self):
        # Spans (0, 3) and (3, 6); every collaborator is foreign.  The
        # flush leaves each host holding the peer rows it pulled, and a
        # blend right after takes them from there; a write in between
        # changes the token, so the blend pulls the fresh row instead.
        rng = np.random.default_rng(21)
        dense, dist = _pair([_state(rng) for _ in range(6)], 2)
        cluster = dist.storage.cluster
        co = np.array([3, 4, 5, 0, 1, 2])

        def peer_calls():
            return sum(
                cluster.call(i, "stats", purpose="stats")[0]["peer_calls"]
                for i in range(2)
            )

        for write in (False, True):
            tracker = GramTracker(dist)
            for i in range(6):
                tracker.update_row(i)
            tracker.gram
            if write:
                fresh = _state(rng)
                dense.set_state(4, fresh)
                dist.set_state(4, fresh)
            before = peer_calls()
            blended = dist.cross_aggregate(co, 0.9)
            np.testing.assert_array_equal(
                np.asarray(blended.matrix),
                np.asarray(dense.cross_aggregate(co, 0.9).matrix),
            )
            # The flush split the 3 x 3 cross block: host 0 pulled rows
            # 3 and 4, host 1 all of 0-2.  Unwritten, only host 0 pulls
            # again (row 5); after the write both pull all they need.
            assert peer_calls() - before == (2 if write else 1)

    def test_propellers_keep_the_blocked_protocol(self):
        rng = np.random.default_rng(2)
        dense, dist = _pair([_state(rng) for _ in range(5)], 2)
        props = np.array([[1, 2], [2, 3], [3, 4], [4, 0], [0, 1]])
        np.testing.assert_array_equal(
            np.asarray(dist.cross_aggregate(props, 0.8).matrix),
            np.asarray(dense.cross_aggregate(props, 0.8).matrix),
        )

    def test_replicated_blend_still_restores_a_killed_host(self):
        # Replicated buffers blend coordinator-side — the mirror needs
        # the bytes — so the *blended* pool survives losing a host.
        cluster = HostCluster(2)
        try:
            rng = np.random.default_rng(8)
            states = [_state(rng) for _ in range(6)]
            dense, dist = _pair(states, None, cluster=cluster, replicate=True)
            co = np.array([3, 4, 5, 0, 1, 2])
            blended = dist.cross_aggregate(co, 0.9)
            assert blended.storage.replicated
            chans = [h.channel("data") for h in cluster.handles]
            assert not any(c.op_counts.get(("blend_rows", None)) for c in chans)
            victim = cluster.handles[0]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            np.testing.assert_array_equal(
                np.asarray(blended.matrix),
                np.asarray(dense.cross_aggregate(co, 0.9).matrix),
            )
        finally:
            cluster.shutdown()


class TestOwnersAndBlockReads:
    def test_fewer_rows_than_hosts(self):
        ref = np.arange(8, dtype=np.float32).reshape(2, 4)
        storage = DistributedStorage.from_array(ref, cluster=get_cluster(3))
        assert storage.host_spans() == [(0, 1), (1, 2), (2, 2)]
        assert [storage.owner_of(i) for i in range(2)] == [(0, 0), (1, 0)]
        np.testing.assert_array_equal(
            storage.gather_rows(np.array([1, 0, 1])), ref[[1, 0, 1]]
        )
        for bad in (-1, 2):
            with pytest.raises(IndexError):
                storage.owner_of(bad)
        with pytest.raises(IndexError):
            storage.gather_rows(np.array([0, 2]))
        # The host with the empty span takes no part in a reduction.
        rng = np.random.default_rng(12)
        dense, dist = _pair([_state(rng) for _ in range(2)], 3)
        assert dist.storage.host_spans() == [(0, 1), (1, 2), (2, 2)]
        for keys in (None, ("w",)):
            mask, masked, _ = dense._mask_info(keys)
            want = GramTracker.from_pool(dense, param_keys=keys).gram
            for rows in ([0, 1], [1], [0]):
                got = dist.storage.gram_rows(np.array(rows), mask if masked else None)
                np.testing.assert_array_equal(got, want[rows])
        for precise in (True, False):
            np.testing.assert_array_equal(
                dist.mean_state(precise=precise), dense.mean_state(precise=precise)
            )

    def test_single_host_fleet(self):
        ref = np.arange(12, dtype=np.float32).reshape(3, 4)
        storage = DistributedStorage.from_array(ref, cluster=get_cluster(1))
        assert [storage.owner_of(i) for i in range(3)] == [(0, 0), (0, 1), (0, 2)]
        np.testing.assert_array_equal(storage.gather_rows(np.array([2, 0])), ref[[2, 0]])

    def test_states_fetches_one_block_per_host(self):
        rng = np.random.default_rng(6)
        states = [_state(rng) for _ in range(5)]
        dense, dist = _pair(states, 2)
        chans = [h.channel("data") for h in dist.storage.cluster.handles]
        key = ("row_block", dist.storage.buffer_id)
        got = dist.states()
        assert sum(c.op_counts.get(key, 0) for c in chans) == 2  # not K
        for state, ref in zip(got, states):
            for name in ref:
                np.testing.assert_array_equal(state[name], ref[name])
        # Local storages still hand out live views — no new copy.
        assert all(
            np.shares_memory(state["w"], dense.matrix) for state in dense.states()
        )


class _CallLog(ServerCallback):
    """Per-round deltas of the fleet's channel op counts.

    A pipelined sync round starts round t+1's legs before round t's
    close, so each channel is cut where its round's calls are bounded
    in either order: ``exec`` (round t's legs) from ``on_round_start(t)``
    to the next round start (or the fit's end), ``data`` (round t's
    flush, blend and evaluation) from ``on_round_end(t - 1)`` to
    ``on_round_end(t)``.  The hosts' own pulls from each other (``peer``)
    happen inside that flush and blend, so they are cut with ``data``;
    each host reports its count through ``stats`` on a channel of its
    own, which no count here includes.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.exec, self.data, self.peer = [], [], []
        self._exec, self._data = None, _data_calls(cluster, "data")
        self._peer = self._peer_calls()

    def _peer_calls(self):
        return sum(
            self.cluster.call(i, "stats", purpose="stats")[0]["peer_calls"]
            for i in range(self.cluster.num_hosts)
        )

    def _cut(self, purpose, last, deltas):
        now = _data_calls(self.cluster, purpose)
        if last is not None:
            deltas.append(now - last)
        return now

    def on_round_start(self, server, round_idx):
        self._exec = self._cut("exec", self._exec, self.exec)

    def on_round_end(self, server, record):
        self._data = self._cut("data", self._data, self.data)
        now = self._peer_calls()
        self.peer.append(now - self._peer)
        self._peer = now

    def on_fit_end(self, server, history):
        self._exec = self._cut("exec", self._exec, self.exec)

    @property
    def rounds(self):
        return [
            {"exec": e, "data": d, "peer": g}
            for e, d, g in zip(self.exec, self.data, self.peer)
        ]


def test_sync_round_makes_o_hosts_data_calls():
    # K = 20 on 2 hosts: a steady-state round is K train_legs on the
    # exec channels plus a data-channel bill that counts hosts, not
    # rows (the per-upload masked_dots fan-out made it 96, the
    # coordinator relaying peer rows 14).  Per host: dispatch 0 (legs
    # start from their host's own pool row), Gram flush 1 (gram_dots:
    # own pairs and half the cross block), blend 1 (blend_rows, carrying
    # the next pool's alloc and the last pool's free), mean 1
    # (accumulate_rows) — 3 per host, 6 a round.  The hosts pull what
    # they need of each other: at most one row_block / gather_rows per
    # peer for the flush and one for the blend, and the flush always
    # pulls.
    log = _CallLog(get_cluster(2))
    run_simulation(
        FLConfig(
            method="fedcross", dataset="synth_cifar10", model="logreg",
            num_clients=20, participation=1.0, rounds=3, local_epochs=1,
            batch_size=10, seed=3, backend="distributed", hosts=2,
            execution="distributed",
            dataset_params={"samples_per_client": 10, "num_test": 20},
        ),
        callbacks=[log],
    )
    assert len(log.exec) == len(log.data) == 3
    for counts in log.rounds[1:]:
        assert counts["exec"] == 20
        assert counts["data"] == 6, counts
        assert 2 <= counts["peer"] <= 4, counts


def test_robust_middleware_similarity_moves_no_rows():
    # A non-linear operator drops the closed-form pool Gram, so the
    # diagnostic reads a fresh tracker: one gram_dots per host, the
    # dots where the rows live, and no row fetched by the coordinator.
    sim = FLSimulation(
        FLConfig(
            method="fedcross", dataset="synth_cifar10", model="logreg",
            num_clients=6, participation=1.0, rounds=1, local_epochs=1,
            batch_size=10, seed=3, backend="distributed", hosts=2,
            aggregator="trimmed_mean",
            dataset_params={"samples_per_client": 10, "num_test": 20},
        )
    )
    sim.run()
    server = sim.server
    assert server._pool_gram is None
    chans = [h.channel("data") for h in server.pool.storage.cluster.handles]
    before = [dict(c.op_counts) for c in chans]
    got = server.middleware_similarity()
    calls = Counter()
    for chan, was in zip(chans, before):
        for key, n in chan.op_counts.items():
            calls[key[0]] += n - was.get(key, 0)
    assert +calls == {"gram_dots": 2}
    # Rows of ~3e4 floats: a host's one-thread dot and the coordinator's
    # may split the sum differently, so equal to round-off, not bitwise.
    dense = PoolBuffer(server.pool.layout, np.asarray(server.pool.matrix))
    want = GramTracker.from_pool(dense, server.selector.param_keys).similarity()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestScreenReadsAfterTheQuarantine:
    """``aggregate`` must read the Gram after its last writer: a
    deferred tracker recomputes quarantined rows only when it is read."""

    CONFIG = dict(
        method="fedcross", dataset="synth_cifar10", model="logreg",
        num_clients=10, participation=1.0, local_epochs=1, batch_size=16,
        rounds=2, seed=7, screen="carry", failure_policy="carry",
        faults={"byzantine_frac": 0.2, "attack": "sign_flip"},
        dataset_params={"samples_per_client": 20, "num_test": 40},
    )
    DISTRIBUTED = dict(backend="distributed", hosts=2, execution="distributed")

    @staticmethod
    def _final(result):
        return np.concatenate(
            [np.ravel(result.final_state[k]) for k in sorted(result.final_state)]
        )

    def test_distributed_carry_screen_equals_dense(self, monkeypatch):
        dense = run_simulation(FLConfig(**self.CONFIG))
        suspects = [
            s for r in dense.history.records
            for s in r.extras.get("suspect_uploads", ())
        ]
        assert suspects and all(s["action"] == "carry" for s in suspects)
        dist = run_simulation(FLConfig(**self.CONFIG, **self.DISTRIBUTED))
        assert [r.accuracy for r in dist.history.records] == [
            r.accuracy for r in dense.history.records
        ]
        np.testing.assert_array_equal(self._final(dist), self._final(dense))

        # The hazard itself: a Gram captured before the quarantine never
        # hears of it.  Emulated by a tracker proxy deaf to the
        # quarantine's update_row — the run must then diverge, i.e. the
        # equality above does depend on the re-read.
        from repro.core.fedcross import FedCrossServer

        class Deaf:
            def __init__(self, tracker):
                self._tracker = tracker

            gram = property(lambda self: self._tracker.gram)

            def update_row(self, row):
                pass

        original = FedCrossServer.screen_uploads
        monkeypatch.setattr(
            FedCrossServer, "screen_uploads",
            lambda self, uploaded, active, plans, tracker: original(
                self, uploaded, active, plans, tracker and Deaf(tracker)
            ),
        )
        stale = run_simulation(FLConfig(**self.CONFIG, **self.DISTRIBUTED))
        assert not np.array_equal(self._final(stale), self._final(dense))
