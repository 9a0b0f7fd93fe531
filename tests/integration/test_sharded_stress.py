"""Large-K sharded+memmap stress smoke (slow-marked, ISSUE 5).

Drives a K=200 pool of the seed CNN on the ``sharded`` backend with
``memmap`` shard placement through one full server-side round of pool
operations — Gram maintenance, Gram-driven selection, cross-
aggregation (into a new pool, then in place), global-model generation
and the diagnostics — under a
small ``REPRO_POOL_BLOCK_BYTES`` budget, and asserts via tracemalloc
that **peak temporary allocation stays below one shard's footprint**.
The memmap pages themselves are file-backed and untracked, so what
tracemalloc sees is exactly the working-set claim: with S shards, the
server's resident cost per operation is bounded by a shard, not the
pool.

Excluded from tier-1 (``-m "not slow"`` in pytest.ini); CI runs it in
a separate non-blocking job.
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro.core.gram import GramTracker
from repro.core.pool import PoolBuffer
from repro.core.selection import CoModelSel
from repro.models import build_model
from repro.utils.layout import StateLayout

K = 200
SHARDS = 8
BLOCK_BUDGET = 2 << 20  # 2 MiB of blocked-op temporaries


@pytest.mark.slow
def test_k200_sharded_memmap_peak_below_one_shard(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MEMMAP_DIR", str(tmp_path))
    model = build_model("cnn", seed=0, input_shape=(3, 8, 8), num_classes=10)
    state = model.state_dict()
    param_keys = {name for name, _ in model.named_parameters()}

    layout = StateLayout.from_state(state)
    pool = PoolBuffer.broadcast(
        layout, layout.flatten(state), K, dtype=np.float32,
        backend="sharded",
        backend_options={"shards": SHARDS, "placement": "memmap"},
    )
    storage = pool.storage
    assert storage.num_shards == SHARDS and storage.placement == "memmap"
    p = pool.num_scalars
    rng = np.random.default_rng(5)
    for i in range(K):  # perturb row by row — no (K, P) host copy
        pool.row(i)[:] += 0.01 * rng.standard_normal(p).astype(np.float32)

    shard_rows = max(b1 - b0 for b0, b1 in storage.shard_spans())
    shard_bytes = shard_rows * p * pool.dtype.itemsize
    full_f64 = K * p * 8

    monkeypatch.setenv("REPRO_POOL_BLOCK_BYTES", str(BLOCK_BUDGET))
    tracemalloc.start()
    try:
        # Incremental Gram: a round's worth of per-upload row updates
        # (shard-local contiguous dots), then Gram-driven selection,
        # the cross-aggregation blend, and the closed-form transform.
        tracker = GramTracker(pool, param_keys=param_keys)
        for i in range(K):
            tracker.update_row(i)
        co = CoModelSel("lowest", param_keys=param_keys).select_all(
            pool, 0, gram=tracker.gram
        )
        fused = pool.cross_aggregate(co, 0.99)
        derived = tracker.cross_aggregated(co, 0.99, pool=fused)
        derived.similarity()
        # GlobalModelGen + out-of-core diagnostics on the fused pool.
        fused.mean_state(precise=True)
        fused.mean_state(precise=False)
        fused.dispersion(param_keys=param_keys)
        # The sync server's blend: in place, into the pool's own rows.
        in_place = pool.cross_aggregate(co, 0.99, out=pool)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert in_place is pool
    for i in range(K):
        np.testing.assert_array_equal(pool.row(i), fused.row(i))
    assert fused.backend == "sharded"
    assert fused.storage.num_shards == SHARDS
    assert peak < shard_bytes, (
        f"peak traced allocation {peak / 1e6:.1f} MB exceeds one shard's "
        f"footprint {shard_bytes / 1e6:.1f} MB (whole-pool float64 would "
        f"be {full_f64 / 1e6:.1f} MB) — a whole-pool temporary is back "
        "on a sharded hot path"
    )
