"""Multi-node shard-actor runtime (socket-RPC distributed pool).

The single-node pool engine deliberately carved the storage row
protocol (``row_block`` / ``write_rows`` / ``gather_rows``, plus the
``gram_rows`` / ``blend_into`` hooks for storages that reduce and
blend where their rows live) as its RPC seam; this package is the
seam's first crossing of a process/node boundary:

:mod:`repro.distributed.framing`
    Length-prefixed socket frames carrying a JSON header plus raw
    C-contiguous array payloads — stdlib only, no new dependencies.
:mod:`repro.distributed.rpc`
    :class:`~repro.distributed.rpc.RPCChannel` — one channel per
    (host, purpose) whose concurrent requests overlap on the wire
    (replies read in ticket order), with one reconnect-and-resend per
    unanswered request, surfacing failures as
    :class:`~repro.distributed.rpc.DistributedError` naming the dead
    shard host.
:mod:`repro.distributed.host`
    The ``ShardHost`` worker process: owns one contiguous row shard
    of each distributed pool buffer, serves the row protocol, its
    share of a Gram flush (``gram_dots``) and of CrossAggr
    (``blend_rows``) — pulling the peer rows they need from the other
    hosts directly — and co-located training legs whose trained
    states land directly in the owning shard.
:mod:`repro.distributed.cluster`
    :class:`~repro.distributed.cluster.HostCluster` — spawns/keeps N
    localhost shard hosts, multiplexes per-host data/exec channels and
    runs broadcasts and per-host request sets concurrently.
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
