"""Multi-node shard-actor runtime (socket-RPC distributed pool).

The single-node pool engine deliberately carved the storage row
protocol (``row_block`` / ``write_rows`` / ``gather_rows`` /
``masked_dots``) as its RPC seam; this package is the seam's first
crossing of a process/node boundary:

:mod:`repro.distributed.framing`
    Length-prefixed socket frames carrying a JSON header plus raw
    C-contiguous array payloads — stdlib only, no new dependencies.
:mod:`repro.distributed.rpc`
    :class:`~repro.distributed.rpc.RPCChannel` — one synchronous
    request/response channel per (host, purpose) with bounded
    reconnect-and-retry, surfacing failures as
    :class:`~repro.distributed.rpc.DistributedError` naming the dead
    shard host.
:mod:`repro.distributed.host`
    The ``ShardHost`` worker process: owns one contiguous row shard
    of each distributed pool buffer, serves the row protocol, runs
    shard-local reductions (``masked_dots``) and co-located training
    legs whose trained states land directly in the owning shard.
:mod:`repro.distributed.cluster`
    :class:`~repro.distributed.cluster.HostCluster` — spawns/keeps N
    localhost shard hosts, multiplexes per-host data/exec channels and
    broadcasts (trainer shipping, fan-out reductions).
:mod:`repro.distributed.storage`
    :class:`~repro.distributed.storage.DistributedStorage` — the
    coordinator-side :class:`~repro.core.storage.PoolStorage` proxy
    registered as the ``distributed`` pool backend.
:mod:`repro.distributed.execution`
    :class:`~repro.distributed.execution.DistributedExecution` — the
    ``distributed`` :class:`~repro.fl.execution.ExecutionBackend`
    scheduling each client's leg on the host owning its upload row,
    with measured :class:`~repro.fl.comm.CommunicationLedger`
    accounting.

Both registries carry ``distributed`` as a lazy entry, so importing
:mod:`repro.core.storage` or :mod:`repro.fl.execution` never imports
this package; resolving the name does.
"""

from repro.distributed.rpc import DistributedError

__all__ = ["DistributedError"]
