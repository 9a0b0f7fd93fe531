"""Spans and counters recorded from outside the program.

The harness wraps the public callables of each ``repro`` module (in the
run's own subprocess, before ``FLSimulation`` is built) so that every
call becomes a span: name, start, end, parent span, round index and
thread.  Spans are kept in memory and written out when the run ends.
Nothing in ``src/`` knows about this file; tracing *inside* the program
(process workers, shard hosts) is the ROADMAP's ``repro.obs`` item.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; ``<stem>_s`` metrics are summed self
times and ``<stem>.calls`` the number of spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

# (id, name, start, end, parent id or -1, round index, thread id)
Span = tuple

RPC_OPS = ("train_leg", "masked_dots", "row_block", "write_rows", "gather_rows")
STORAGE_ROW_OPS = ("row", "row_block", "write_rows", "gather_rows", "masked_dots")


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._costs: list[float] = []
        self.enabled = True
        self.round_of = lambda: -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._count_lock = threading.Lock()
        # Forked process workers and shard hosts inherit the patched
        # classes; their spans are out of scope, so switch recording off
        # there instead of paying for spans nobody reads.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def is_open(self, name: str) -> bool:
        return any(entry[1] == name for entry in self._stack())

    def _open(self, name: str) -> tuple:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else -1
        stack.append((sid, name))
        return sid, name, parent, self.round_of()

    def _close(self, token: tuple, entered: float, start: float, end: float) -> None:
        sid, name, parent, round_idx = token
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, round_idx, threading.get_ident()))
        # What the recorder itself cost around this call; summed into
        # trace.overhead_share (list.append is atomic, a float += is not).
        self._costs.append((start - entered) + (time.perf_counter() - end))

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        entered = time.perf_counter()
        token = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(token, entered, start, time.perf_counter())

    @property
    def overhead_s(self) -> float:
        return sum(self._costs)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            with self._count_lock:
                self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers -----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, top_level: bool = False,
             under: str | None = None, after=None) -> None:
        """Replace ``owner.attr`` by a version recording one span per call.

        ``top_level`` records only the outermost of nested same-name calls
        (``Module.__call__``); ``under`` records only while a span whose
        name starts with it is open on the thread (pool ``submit`` calls
        made by an execution backend, not by anyone else); ``after`` is
        handed each return value (to count what the call produced).
        """
        fn = _raw(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (
                not self.enabled
                or (top_level and self.is_open(name))
                or (under is not None and not (self.current() or "").startswith(under))
            ):
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            token = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(token, entered, start, time.perf_counter())
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_stream(self, owner, attr: str, name: str, items: str) -> None:
        """Wrap a generator function: one span per resume.

        The span covers the time the consumer is blocked *inside* the
        stream (waiting for the next leg), not the time the consumer
        spends on each yielded item; yielded items are counted as
        ``items``.
        """
        fn = _raw(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._resume_spans(name, items, fn(*args, **kwargs))

        setattr(owner, attr, wrapper)

    def _resume_spans(self, name: str, items: str, stream):
        try:
            while True:
                with self.span(name):
                    try:
                        item = next(stream)
                    except StopIteration:
                        return
                self.count(items)
                yield item
        finally:
            stream.close()

    def wrap_count(self, owner, attr: str, name: str) -> None:
        """Count calls without a span (hot, tiny row accessors)."""
        fn = _raw(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def wrap_rpc(self, channel_cls) -> None:
        """``RPCChannel.call``: one span per op plus array bytes each way."""
        fn = channel_cls.call

        @functools.wraps(fn)
        def call(channel, op, meta=None, arrays=None, blob=None):
            if not self.enabled:
                return fn(channel, op, meta, arrays, blob)
            stem = op if op in RPC_OPS else "other"
            with self.span(f"distributed.rpc.op.{stem}"):
                reply = fn(channel, op, meta, arrays, blob)
            self.count(
                "distributed.rpc.bytes_out",
                sum(int(a.nbytes) for a in (arrays or {}).values()),
            )
            self.count(
                "distributed.rpc.bytes_in", sum(int(a.nbytes) for a in reply[1].values())
            )
            return reply

        channel_cls.call = call

    # -- output -------------------------------------------------------------
    def dump(self, path: str, header: dict) -> None:
        """Write every span (sorted by start) and counter to ``path``."""
        spans = sorted(self.spans, key=lambda s: s[2])
        payload = dict(
            header,
            fields=["id", "name", "start", "end", "parent", "round", "thread"],
            spans=spans,
            counts=self.counts,
        )
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _raw(owner, attr: str):
    """``owner.attr`` as stored (so static/class methods are rejected loudly)."""
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if not callable(fn):
        raise TypeError(f"{owner!r}.{attr} is not a plain callable")
    return fn


def install(recorder: Recorder, config) -> None:
    """Wrap the public callables the per-layer metrics are read from.

    Called in the run's subprocess after ``import repro.fl.simulation``
    and before ``FLSimulation`` is built.  Only backends the config uses
    are imported, so a traced run loads what the untraced run loads.
    """
    import concurrent.futures as cf

    import repro.fl.scheduler as scheduler
    import repro.fl.simulation as simulation
    import repro.models.registry as model_registry
    import repro.tensor.functional as functional
    from repro.core.fedcross import FedCrossAsyncAdapter, FedCrossServer
    from repro.core.gram import GramTracker
    from repro.core.pool import PoolBuffer
    from repro.core.selection import CoModelSel
    from repro.core.storage import DenseStorage, PoolStorage, ShardedStorage
    from repro.fl import execution
    from repro.fl.server import FederatedServer
    from repro.fl.trainer import LocalTrainer
    from repro.nn.module import Module
    from repro.optim.sgd import SGD
    from repro.robust import operators
    from repro.tensor.tensor import Tensor

    rec = recorder
    # set-up
    rec.wrap(simulation, "build_federated_dataset", "setup.data")
    # The simulation pickles ``partial(build_model, ...)`` for workers and
    # shard hosts, and pickle resolves a function by its module's name:
    # the wrapper has to be what that name holds, in both modules.
    rec.wrap(model_registry, "build_model", "setup.model")
    simulation.build_model = model_registry.build_model
    rec.wrap(simulation, "build_server", "setup.server")
    # fl.scheduler / fl.server
    rec.wrap(scheduler, "run_sync_round", "fl.scheduler.round")
    rec.wrap(scheduler.AsyncRoundScheduler, "run", "fl.scheduler.round")
    rec.wrap(scheduler, "wait", "fl.execution.wait")
    rec.wrap(FederatedServer, "fit", "fl.server.fit")
    rec.wrap(FederatedServer, "select_cohort", "fl.server.select")
    rec.wrap(FederatedServer, "collect", "fl.server.collect")
    rec.wrap(FederatedServer, "evaluate", "fl.server.evaluate")
    rec.wrap(FedCrossServer, "dispatch", "fl.server.dispatch")
    rec.wrap(FedCrossServer, "aggregate", "fl.server.aggregate")
    rec.wrap(FedCrossServer, "finalize_fit", "fl.server.finalize")
    rec.wrap(FedCrossAsyncAdapter, "upload_landed", "fl.server.aggregate")
    rec.wrap(FedCrossAsyncAdapter, "complete_round", "fl.server.aggregate")
    # fl.execution
    backends = [execution.SerialExecution, execution.ThreadExecution,
                execution.ProcessExecution]
    if config.execution == "distributed":
        from repro.distributed.execution import DistributedExecution

        backends.append(DistributedExecution)
    for backend in backends:
        for attr in ("run_streaming", "run_streaming_captured"):
            rec.wrap_stream(backend, attr, "fl.execution.wait", items="fl.execution.legs")
        rec.wrap(
            backend, "submit_group", "fl.execution.submit",
            after=lambda group: rec.count("fl.execution.legs", len(group.futures)),
        )
        if "close" in backend.__dict__:
            rec.wrap(backend, "close", "fl.execution.close")
    for pool in (cf.ThreadPoolExecutor, cf.ProcessPoolExecutor):
        rec.wrap(pool, "submit", "fl.execution.submit", under="fl.execution.")
    # fl.trainer / nn / tensor / optim
    def trained(result) -> None:
        rec.count("fl.trainer.steps", result.num_steps)
        rec.count("fl.trainer.samples", result.num_samples)

    rec.wrap(LocalTrainer, "train", "fl.trainer.train", after=trained)
    rec.wrap(Module, "__call__", "nn.forward", top_level=True)
    rec.wrap(Tensor, "backward", "tensor.backward")
    rec.wrap(SGD, "step", "optim.step")
    rec.wrap(functional, "cross_entropy", "tensor.cross_entropy")
    # core
    rec.wrap(GramTracker, "update_row", "core.gram.update_row")
    rec.wrap(GramTracker, "cross_aggregated", "core.gram.cross_aggregated")
    rec.wrap(CoModelSel, "select_all", "core.selection.select_all")
    rec.wrap(PoolBuffer, "cross_aggregate", "core.pool.cross_aggregate")
    rec.wrap(PoolBuffer, "mean_state", "core.pool.mean_state")
    rec.wrap(PoolBuffer, "set_state", "core.pool.set_state")
    storages = [PoolStorage, DenseStorage, ShardedStorage]
    # robust / faults
    for operator in (operators.MeanOperator, operators._RobustOperator,
                     operators.NormClipOperator):
        for attr, name in (("cross_blend", "robust.operators.cross_blend"),
                           ("combine", "robust.operators.combine")):
            if attr in operator.__dict__:
                rec.wrap(operator, attr, name)
    if config.screen is not None:
        import repro.robust.screen as screen

        rec.wrap(screen, "screen_scores", "robust.screen.scores")
    import repro.faults.engine as engine

    rec.wrap(engine, "resilient_collect", "faults.engine.collect")
    # distributed
    if config.backend == "distributed":
        import repro.distributed.cluster as cluster
        import repro.distributed.storage as dstorage
        from repro.distributed.rpc import RPCChannel

        rec.wrap_rpc(RPCChannel)
        rec.wrap(cluster.HostCluster, "broadcast", "distributed.cluster.broadcast")
        rec.wrap(cluster.HostCluster, "shutdown", "distributed.cluster.shutdown")
        # DistributedStorage resolves the fleet through its own import of
        # get_cluster; patch the name where it is looked up.
        rec.wrap(cluster, "get_cluster", "distributed.cluster.spawn")
        rec.wrap(dstorage, "get_cluster", "distributed.cluster.spawn")
        storages.append(dstorage.DistributedStorage)
    for storage in storages:
        for op in STORAGE_ROW_OPS:
            if op in storage.__dict__:
                rec.wrap_count(storage, op, "core.storage.row_ops")


# -- analysis (pure functions over span tuples; used by the tests) -------------
def self_times(spans) -> dict[str, tuple[float, int]]:
    """``name -> (summed self time, span count)``.

    Self time is the span's duration minus the union of the intervals
    its direct children cover (clipped to the span).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, _name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, tuple[float, int]] = {}
    for sid, name, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        self_s, calls = totals.get(name, (0.0, 0))
        totals[name] = (self_s + (end - start) - covered, calls + 1)
    return totals


def tail_percentile(samples, beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples past it.

    Returns ``(percentile, value)``; ``(0.0, 0.0)`` when fewer than
    ``beyond + 1`` samples exist, because then no percentile qualifies.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return 0.0, 0.0
    index = n - beyond - 1
    return 100.0 * (index + 1) / n, ordered[index]

