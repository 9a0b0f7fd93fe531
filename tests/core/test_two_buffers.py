"""FedCross holds two ``(K, P)`` buffers: the pool and the upload buffer.

CrossAggr blends in place into the round's upload buffer, which becomes
the pool, and the old pool takes in the next round's uploads.  Over a
4-round fit no pool-shaped buffer is allocated after the first collect
made the upload buffer, and ``server.pool`` alternates between exactly
two storages — on ``dense`` / ``serial``, ``sharded`` / ``thread`` and
``process`` (whose rows live in shared memory).
"""

import numpy as np
import pytest

from repro.core.storage import ShardedStorage
from repro.fl.callbacks import ServerCallback
from repro.fl.simulation import FLSimulation


class _PoolLog(ServerCallback):
    def __init__(self) -> None:
        self.storages = []

    def on_round_end(self, server, record) -> None:
        self.storages.append(server.pool.storage)


@pytest.mark.parametrize(
    "overrides",
    [
        {"backend": "dense", "execution": "serial"},
        {"backend": "sharded", "shards": 2, "execution": "thread", "workers": 2},
        {"backend": "dense", "execution": "process", "workers": 2},
    ],
    ids=["dense-serial", "sharded-thread", "process"],
)
def test_a_fit_allocates_two_pool_shaped_buffers(tiny_config, monkeypatch, overrides):
    allocated = []  # (K, P) buffers of the pool dtype, in allocation order
    allocate = ShardedStorage._allocate.__func__

    def counting(cls, shape, dtype, shards, medium):
        storage = allocate(cls, shape, dtype, shards, medium)
        allocated.append((tuple(int(s) for s in shape), np.dtype(dtype), storage))
        return storage

    monkeypatch.setattr(ShardedStorage, "_allocate", classmethod(counting))
    config = tiny_config.with_method("fedcross").replace(rounds=4, **overrides)
    log = _PoolLog()
    sim = FLSimulation(config, callbacks=[log])
    try:
        sim.run()
    finally:
        sim.server.executor.close()

    k, p = config.clients_per_round, sim.trainer.layout.total_size
    pools = [storage for shape, dtype, storage in allocated
             if shape == (k, p) and dtype == np.float32]
    # The set-up pool, then the upload buffer of round 0's collect.
    assert len(pools) == 2
    assert len(log.storages) == 4
    assert {id(s) for s in log.storages} == {id(s) for s in pools}
    for before, after in zip(log.storages, log.storages[1:]):
        assert before is not after
