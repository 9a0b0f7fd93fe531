"""Where a ``process`` run's rows live, and how long.

Process legs train in the server's own rows: the server keeps its pool,
upload and global rows in one shared-memory family
(:func:`repro.core.storage.shared_medium`) whose segments are recycled
round after round and unlinked with the server.  A ``memmap`` server
recycles its files through the same free list.  A worker maps a leg's
two rows for that leg only, so no row's pages stay in it.
"""

from __future__ import annotations

import dataclasses
import gc
import mmap
import os

import pytest

from repro.core import storage
from repro.fl.callbacks import ServerCallback
from repro.fl.config import FLConfig
from repro.fl.execution import stream_legs
from repro.fl.simulation import FLSimulation

BASE = dict(
    dataset="synth_cifar10",
    model="mlp",
    heterogeneity=0.5,
    num_clients=8,
    participation=0.5,
    local_epochs=1,
    batch_size=16,
    eval_every=1,
    seed=5,
    dataset_params={"samples_per_client": 24, "num_test": 60},
)
PROCESS = dict(execution="process", workers=2)


class Created(ServerCallback):
    """Files / segments created so far, at the end of each round."""

    def __init__(self, kind: str) -> None:
        self.kind, self.counts = kind, []

    def on_round_end(self, server, record):
        self.counts.append(storage._created[self.kind])


class Interrupt(ServerCallback):
    """Stop (``stop``) or raise from ``hook`` of round ``at``."""

    def __init__(self, hook: str, at: int, stop: bool = False) -> None:
        self.hook, self.at, self.stop = hook, at, stop

    def _fire(self, server, hook, round_idx):
        if hook == self.hook and round_idx == self.at:
            if self.stop:
                server.stop_training = True
            else:
                raise RuntimeError(f"{hook}({round_idx})")

    def on_round_start(self, server, round_idx):
        self._fire(server, "on_round_start", round_idx)

    def on_evaluate(self, server, record):
        self._fire(server, "on_evaluate", record.round_idx)

    def on_round_end(self, server, record):
        self._fire(server, "on_round_end", record.round_idx)


def _segments() -> set:
    return set(os.listdir("/dev/shm"))


@pytest.mark.parametrize("method", ["fedcross", "fedavg"])
def test_a_sync_process_fit_creates_no_segment_after_round_one(method):
    start = storage._created["shm"]
    sim = FLSimulation(FLConfig(**BASE, **PROCESS, method=method, rounds=6))
    created = Created("shm")
    try:
        sim.server.fit(callbacks=[created])
    finally:
        sim.server.executor.close()
    if method == "fedcross":
        assert sim.server.pool.storage.placement == "shm"
    assert created.counts[0] > start
    assert created.counts[1:] == [created.counts[1]] * 5, created.counts


def test_the_gram_image_stays_on_the_heap():
    """Coordinator-private scratch is not shared: the tracker's float64
    image of a shared-memory upload buffer is an in-RAM array."""
    sim = FLSimulation(FLConfig(**BASE, **PROCESS, method="fedcross", rounds=1))
    server = sim.server
    try:
        active = server.select_cohort()
        server.collect(active, server.dispatch(active))
        assert server.uploads.storage.placement == "shm"
        assert server._upload_gram._image.placement == "dense"
    finally:
        server.executor.close()


# (callback, fit raises) -> each a way a pipelined fit can end.
ENDINGS = {
    "normal": (None, False),
    "stop-during-close": (Interrupt("on_round_end", 1, stop=True), False),
    "evaluate-raises": (Interrupt("on_evaluate", 0), True),
    "round-start-raises": (Interrupt("on_round_start", 1), True),
}


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_no_segment_outlives_the_server(ending):
    """However a fit ends — with round 1 in flight when an ``on_evaluate``
    or ``on_round_start(1)`` raises — once the executor is closed and the
    simulation collected, no segment of it is left in /dev/shm."""
    callback, raises = ENDINGS[ending]
    before = _segments()
    sim = FLSimulation(FLConfig(**BASE, **PROCESS, method="fedcross", rounds=4))
    try:
        if raises:
            with pytest.raises(RuntimeError):
                sim.server.fit(callbacks=[callback])
        else:
            sim.server.fit(callbacks=[callback] if callback else [])
        assert _segments() - before, "the fit's rows live in shared memory"
    finally:
        sim.server.executor.close()
    del sim
    gc.collect()
    assert _segments() <= before


@pytest.mark.parametrize("method", ["fedcross", "fedavg"])
def test_memmap_rounds_recycle_their_files(method):
    """A 6-round memmap run creates no more temporary files than a
    2-round one: each round's pool and Gram image take the files the
    round before released."""
    made = {}
    for rounds in (2, 6):
        start = storage._created["memmap"]
        FLSimulation(FLConfig(**BASE, method=method, backend="memmap", rounds=rounds)).run()
        made[rounds] = storage._created["memmap"] - start
    assert 0 < made[6] <= made[2], made


def test_a_dispatch_row_off_the_shared_medium_is_refused_before_any_leg():
    """A process leg can only train in a row its worker can map: a heap
    copy of the dispatched row is refused, and no client RNG moves."""
    sim = FLSimulation(FLConfig(**BASE, **PROCESS, method="fedavg", rounds=1))
    server = sim.server
    try:
        active = server.select_cohort()
        plans = server.dispatch(active)
        plans[-1].flat = plans[-1].flat.copy()
        rngs = [client.rng.bit_generator.state for client in active]
        with pytest.raises(ValueError, match="process legs train in the server's rows"):
            server.collect(active, plans)
        assert [client.rng.bit_generator.state for client in active] == rngs
        assert server.executor._pool is None  # nothing was started
    finally:
        server.executor.close()


def test_a_group_holds_the_rows_its_legs_read():
    """Rows only the submitted legs still reference return to the free
    list when the group's last leg is done, not when the caller drops
    them — else the next allocation of that size could zero a row a
    worker is reading."""
    sim = FLSimulation(FLConfig(**BASE, **PROCESS, method="fedavg", rounds=1))
    server = sim.server
    try:
        active = server.select_cohort()
        plans = [
            dataclasses.replace(plan, flat=server._leg_row(plan.flat))
            for plan in server.dispatch(active)
        ]
        rows = list(range(len(active)))
        uploads = server._round_uploads(len(active))
        size = plans[0].flat.nbytes
        free = server._medium._free
        spare = len(free.get(size, []))
        group = server.executor.submit_group(server.trainer, active, plans, rows, uploads)
        del plans
        gc.collect()
        assert len(free.get(size, [])) == spare
        assert len(list(stream_legs(group, active, rows))) == len(active)
        gc.collect()
        assert len(free.get(size, [])) == spare + len(active)
    finally:
        server.executor.close()


def _rss_shmem_bytes() -> int:
    """This process's resident shared memory (in a worker: its mapped rows)."""
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("RssShmem:"))
    return int(kb) * 1024


def test_a_worker_keeps_no_row_mapped_between_legs():
    """After a 4-round fit in which one worker trained every leg, the
    shared memory it holds has grown by at most the pages of a leg's two
    rows — not by every pool and upload row it ever read or wrote."""
    sim = FLSimulation(
        FLConfig(**BASE, execution="process", workers=1, method="fedcross", rounds=4)
    )
    server = sim.server
    try:
        server.executor.worker_blas_threads()  # start the worker
        before = server.executor._pool.submit(_rss_shmem_bytes).result()
        server.fit()
        after = server.executor._pool.submit(_rss_shmem_bytes).result()
        row_pages = -(-server.pool.matrix[0].nbytes // mmap.PAGESIZE) + 1
        assert row_pages > 10  # a row spans many pages
        assert after - before <= 2 * row_pages * mmap.PAGESIZE, (before, after)
    finally:
        server.executor.close()
