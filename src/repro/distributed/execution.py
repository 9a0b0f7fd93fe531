"""Co-located client execution on the shard-host fleet.

:class:`DistributedExecution` is the ``distributed`` entry of the
execution-backend registry: each client's local-training leg runs **on
the shard host that owns its upload row**, so the trained ``P`` floats
are packed straight into the host-resident shard and never transit the
coordinator.  Per leg, the coordinator ships the hook specs, the
client's RNG state and the dispatched row: a FedCross sync plan's
:class:`~repro.distributed.storage.RemoteRow` whose pool row lives on
the leg's own host goes as a reference (buffer id and local row — the
host reads its shard in place, so the row never crosses the wire);
any other plan row ships as it is (one buffer-dtype row).  Only
scalars — loss, sample/step counts, the advanced RNG state — ride
back.  A host's legs overlap on its ``exec`` channel: every request is
written at submit, so the host finds its next leg in the socket buffer
when it finishes one.  Storage ops use the ``data`` channels, and the
Gram is only marked while legs run (``GramTracker`` defers on this
storage), so nothing competes with a training host for its cores.

The backend requires the upload buffer to live on
:class:`~repro.distributed.storage.DistributedStorage` — co-location
is meaningless against a coordinator-local matrix; ``FLConfig``'s
``RULES`` refuse any other storage — and reuses that buffer's
:class:`~repro.distributed.cluster.HostCluster`.  Like every
backend it only runs legs; the server bills the round's communication.

Determinism: a host runs the same :func:`~repro.fl.execution.run_leg`
as every other backend, from the dispatched row and the client's
shipped RNG state — the distributed leg of the cross-backend
equivalence matrix is bitwise identical to serial.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from repro.distributed.rpc import DistributedError
from repro.fl.execution import (
    ExecutionBackend,
    LegGroup,
    UploadState,
    _check_cohort,
    _trainer_hypers,
    register_execution,
)
from repro.fl.trainer import LocalResult

__all__ = ["DistributedExecution"]


@register_execution("distributed")
class DistributedExecution(ExecutionBackend):
    """Training legs scheduled on the shard hosts owning their rows."""

    legs_use_coordinator = False
    # Re-bound by name for the frozen e2e harness (see fl/execution.py).
    run_streaming = ExecutionBackend.run_streaming
    run_streaming_captured = ExecutionBackend.run_streaming_captured

    def __init__(self, spec=None, clients=(), workers=None) -> None:
        super().__init__(spec, clients, workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_width = 0

    def _ensure_pool(self, width: int) -> None:
        # One dispatcher thread per in-flight leg: each writes its
        # request to the host's exec channel at once and blocks until
        # the reply.  A written request cannot be withdrawn, and its
        # future is already *running*: ``_drain``'s cancel() does not
        # touch it and its wait() covers it, so no leg can land after a
        # drained stream returns.
        if self._pool is None or self._pool_width < width:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            self._pool = ThreadPoolExecutor(
                max_workers=max(1, width), thread_name_prefix="repro-dist"
            )
            self._pool_width = max(1, width)

    def reserve(self, width: int) -> None:
        # Pre-size the dispatcher pool for the whole overlap window so
        # a mid-flight _ensure_pool growth (shutdown+rebuild) can never
        # stall on in-flight legs of an earlier round.
        self._ensure_pool(int(width))

    def submit_group(self, trainer, active, plans, rows, uploads, attacks=None):
        from repro.distributed.storage import RemoteRow

        _check_cohort(active, plans, rows, uploads, parallel=True)
        storage = uploads.storage
        if self.spec is None:
            raise RuntimeError(
                "distributed execution backend needs a TrainerSpec to build "
                "host-side trainer templates"
            )
        # Every hook blob is built before the first leg is submitted, so
        # an unpicklable spec on plan n raises with no leg training.
        blobs = [
            pickle.dumps((plan.loss_hook, plan.grad_hook))
            if plan.loss_hook is not None or plan.grad_hook is not None
            else b""
            for plan in plans
        ]
        cluster = storage.cluster
        try:
            # A replicated fleet is brought back up before any leg is
            # sent: a host killed between rounds would otherwise fail
            # (and bill) every leg sent to it.
            storage.ensure_fleet()
            cluster.ensure_trainer(
                self.spec, {c.client_id: c.dataset for c in self.clients}
            )
        except DistributedError as exc:
            # Fleet-level dispatch failure (dead host mid-broadcast):
            # every leg of the group fails with it, so a capturing
            # consumer (the engine, the async driver) can recover the
            # fleet and resubmit instead of aborting the fit.
            failed = [Future() for _ in plans]
            for future in failed:
                future.set_exception(exc)
            return LegGroup(failed)
        hypers = _trainer_hypers(trainer)
        self._ensure_pool(len(plans))
        futures = []
        for i, plan in enumerate(plans):
            client = active[i]
            host, local = storage.owner_of(int(rows[i]))
            meta = {
                "buffer": storage.buffer_id,
                "local_row": int(local),
                "client_id": client.client_id,
                "rng_state": client.rng.bit_generator.state,
                "hypers": hypers,
                "lr_override": plan.lr_override,
            }
            if attacks and i in attacks:
                # run_leg poisons the landed row on its host: no upload,
                # honest or not, transits the coordinator.
                meta["attack"] = attacks[i].to_wire()
            flat = plan.flat
            if isinstance(flat, RemoteRow) and flat.served_by(cluster, host):
                meta["src"], meta["src_row"] = flat.storage.buffer_id, flat.local
                flat = None
            else:
                flat = np.asarray(flat)
            futures.append(
                self._pool.submit(cluster.train_leg, host, meta, flat, blobs[i])
            )

        def land(i: int, reply) -> LocalResult:
            """Book one completed leg: RNG restore, replica note."""
            active[i].rng.bit_generator.state = reply["rng_state"]
            # Replicated storage: the row now holds a trained state the
            # coordinator mirror does not — mark it dirty so a host
            # death before aggregation reports it as lost.
            storage.note_remote_write(int(rows[i]))
            return LocalResult(UploadState(uploads, int(rows[i])), *reply["scalars"])

        return LegGroup(futures, land)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_width = 0
