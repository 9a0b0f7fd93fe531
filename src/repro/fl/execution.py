"""Pluggable client-execution backends for the ``collect`` phase.

The :class:`~repro.fl.server.FederatedServer`'s ``collect`` phase trains
the round's K active clients.  Mathematically those K local updates are
embarrassingly parallel — every client owns an independent RNG stream, a
private shard, and a dedicated upload-buffer row — but the original
implementation ran them strictly sequentially on one process, so a
round cost K× one local update regardless of core count.

This module makes *where the K updates run* a pluggable backend, in the
same registry style as :mod:`repro.core.storage`'s pool backends:

``serial``
    :class:`SerialExecution` — the original in-process loop on the
    server's shared trainer template.  The default, and the reference
    behaviour every other backend must reproduce bit-for-bit.
``thread``
    :class:`ThreadExecution` — a persistent thread pool, one private
    model/trainer template per worker thread.  Threads write their
    upload rows straight into the server's pool buffer.  Python-level
    training code still serialises on the GIL, so the win is bounded by
    the NumPy/BLAS fraction of the workload; useful mostly as the
    shared-memory stepping stone and for GIL-free builds.
``process``
    :class:`ProcessExecution` — a persistent ``ProcessPoolExecutor``
    whose workers each hold a reusable model/trainer template (built
    once from a picklable :class:`TrainerSpec`) plus the full client
    shard table (shipped once at pool start-up, inherited for free
    under the ``fork`` start method).  Legs train in the server's own
    rows: a server whose backend declares ``legs_map_rows`` keeps its
    pool, upload and global rows on shared memory (or on the memmap
    files a ``memmap`` pool already lives in), a task carries a
    picklable handle ``(segment or file, offset, shape, dtype)`` for
    its dispatch row and its upload row, and the worker's
    :func:`run_leg` reads the one and lands in the other in place —
    no model is copied into or out of a transport buffer, and none is
    pickled.  Hook specs ride the task pickle, as on ``distributed``.
    Only scalars (sample counts, loss, the client's advanced RNG state)
    ride back through the future.
    Each worker caps its BLAS pool at ``usable cores // workers``
    threads (never above what it inherited — see :mod:`repro.utils.cpu`),
    so the workers together use the cores once instead of ``workers``
    times.
``distributed``
    :class:`~repro.distributed.execution.DistributedExecution` (lazy —
    lives in :mod:`repro.distributed`, imported on first selection) —
    each leg is a :func:`run_leg` on the socket-RPC shard host owning
    its upload row, so the trained state lands in its shard without
    transiting the coordinator.  Requires the pool on ``distributed``
    storage.

One primitive, three drivers
----------------------------
A round is K *legs* (Algorithm 1, lines 6-10) and a leg is one function
whatever the substrate: :func:`run_leg` trains one dispatched model on
one client's shard and lands the upload in one buffer row.  The model
is a ``(P,)`` float32 row both ways (in: :attr:`~repro.fl.server
.DispatchPlan.flat`; out: the trainer's ``row``, which the model trains
inside), so no leg converts a model and backends only move rows.  A
backend decides *where* that call runs by implementing exactly one thing,
:meth:`ExecutionBackend.submit_group`, which validates the whole cohort,
starts every leg without blocking and returns a
:class:`LegGroup`: one future per plan (``serial`` trains inline and
returns them already resolved), a ``finalize(j, raw)`` that books leg
``j`` on the caller's thread (client-RNG restore), and a ``leg_done()``
that releases group-scoped resources once every leg is accounted for.

Every schedule is the same legs, differing only in *when the server
looks at them*, so the schedules are written once, in the base class,
over :func:`stream_legs` — the single as-completed / cancel-and-drain
loop:

* :meth:`ExecutionBackend.run_streaming` yields ``(plan_index,
  result)`` the moment each leg lands (``serial``: plan order; pooled
  backends: completion order, while slower legs still train).  On the
  first leg error the queued legs are cancelled and in-flight ones
  awaited, *then* the error is raised — no stray leg writes into the
  reused upload buffer after control returns.  The server's collect
  consumes it to feed FedCross's incremental Gram tracker during the
  round.
* :meth:`ExecutionBackend.run` drains that stream into plan order
  (``train_cohort``, and the tests' gathered oracle); uploads, results
  and RNG state are bit-identical either way.
* :meth:`ExecutionBackend.run_streaming_captured` is the same loop
  with a leg error yielded as a :class:`~repro.faults.policy
  .LegFailure` instead of raised, plus the wall-clock deadline rule
  (cancel, drain, then ``timeout`` failures) — the resilience engine's
  seam.

The async round scheduler owns its own wait loop over several groups
at once and calls ``submit_group`` directly.  A third-party backend
therefore implements ``submit_group`` (plus ``reserve`` / ``close`` if
it pools anything) and serves all four schedules.

Determinism contract
--------------------
All backends produce **bit-identical** training histories and upload
buffers for the same config/seed: each client's batch shuffling draws
from its own generator (round-tripped through workers by state), hook
specs own their RNG streams, models move as buffer-dtype rows, and
results are returned in plan order regardless of completion order.  One
carve-out: models whose *layers* own RNG streams shared across clients
via the serial trainer template (e.g. ``nn.Dropout``'s mask stream)
consume that stream in client order under ``serial`` — such models are
only reproducible on the serial backend.

A plan's hooks are :class:`~repro.fl.hooks.HookSpec` instances (plain,
picklable data) and its ``flat`` a row of the upload buffer's shape and
dtype on every backend: :func:`_check_cohort` refuses anything else
before any leg runs.

Backends register on :data:`EXECUTION_BACKENDS` via
:func:`register_execution`; selection is wired through
``FLConfig.execution`` / ``FLConfig.workers`` and the CLI flags
``--execution`` / ``--workers``.  The server resolves that name, builds
the backend with a :class:`TrainerSpec` of its trainer and holds it as
``server.executor``.  A backend only runs legs and keeps no
communication books: the server bills every backend's rounds alike,
from the round's leg counts (:meth:`~repro.fl.server.FederatedServer
.charge_round_communication`).
"""

from __future__ import annotations

import copy
import functools
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.faults.policy import LegFailure
from repro.fl.hooks import HookSpec, resolve_hook
from repro.fl.trainer import LocalResult, LocalTrainer, TrainStats
from repro.utils.cpu import (
    blas_share,
    blas_threads,
    limit_blas_threads,
    reserve_for_children,
    usable_cores,
)
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pool import PoolBuffer
    from repro.fl.client import Client
    from repro.fl.server import DispatchPlan
    from repro.nn.module import Module
    from repro.robust.attacks import AttackSpec

__all__ = [
    "TrainerSpec",
    "LegGroup",
    "UploadState",
    "run_leg",
    "stream_legs",
    "ExecutionBackend",
    "SerialExecution",
    "ThreadExecution",
    "ProcessExecution",
    "EXECUTION_BACKENDS",
    "register_execution",
    "resolve_execution",
    "available_executions",
]


EXECUTION_BACKENDS = Registry("execution backend")


def register_execution(name: str):
    """Class decorator registering an :class:`ExecutionBackend`."""
    return EXECUTION_BACKENDS.register(name)


def resolve_execution(name: str) -> type["ExecutionBackend"]:
    """Backend class registered under ``name`` (case-insensitive)."""
    return EXECUTION_BACKENDS.resolve(name)


def available_executions() -> list[str]:
    return EXECUTION_BACKENDS.available()


# -- trainer template -------------------------------------------------------
@dataclass
class TrainerSpec:
    """Picklable recipe for a worker's private model/trainer template.

    ``model_factory`` is any zero-argument picklable callable returning
    a fresh :class:`~repro.nn.module.Module` (the simulation passes a
    :func:`functools.partial` over the model registry); the remaining
    fields mirror :class:`~repro.fl.trainer.LocalTrainer`'s settings.
    """

    model_factory: Callable[[], "Module"]
    local_epochs: int = 5
    batch_size: int = 50
    lr: float = 0.01
    momentum: float = 0.5
    weight_decay: float = 0.0

    def build(self) -> LocalTrainer:
        """Materialise a private trainer around a fresh model."""
        return LocalTrainer(
            self.model_factory(),
            local_epochs=self.local_epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )

    @classmethod
    def from_trainer(
        cls,
        trainer: LocalTrainer,
        model_factory: "Callable[[], Module] | None" = None,
    ) -> "TrainerSpec":
        """Spec mirroring ``trainer``; falls back to deep-copying its
        model template when no explicit factory is supplied."""
        factory = (
            model_factory
            if model_factory is not None
            else functools.partial(copy.deepcopy, trainer.model)
        )
        return cls(
            model_factory=factory,
            local_epochs=trainer.local_epochs,
            batch_size=trainer.batch_size,
            lr=trainer.lr,
            momentum=trainer.momentum,
            weight_decay=trainer.weight_decay,
        )


_HYPER_FIELDS = ("local_epochs", "batch_size", "lr", "momentum", "weight_decay")


def _trainer_hypers(trainer: LocalTrainer) -> dict:
    """The live trainer's per-leg settings, captured per ``run`` call.

    :func:`run_leg` applies these to a parallel backend's private
    template before every leg, so mid-run mutations of the server's
    trainer (e.g. the experiments' per-round LR decay,
    ``sim.trainer.lr = ...``) are honoured exactly as serial does.
    """
    return {field: getattr(trainer, field) for field in _HYPER_FIELDS}


def _default_workers(workers: int | None) -> int:
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return int(workers)
    return usable_cores()


def _check_cohort(active, plans, rows, uploads, parallel: bool = False) -> None:
    """Submission preconditions — the one place a cohort is refused.

    ``active``, ``plans`` and ``rows`` must align one-to-one: a skew
    truncated to the shorter list would silently drop legs (and skew
    quorum accounting), so it fails loudly instead.  On every backend a
    plan's hooks must be :class:`~repro.fl.hooks.HookSpec` instances (or
    ``None``): plain data, resolved where the leg runs; and its
    dispatch row must be a row of the ``uploads`` buffer, same shape and
    dtype — another is refused, never cast, so a cohort is valid on
    every backend or on none.  ``parallel`` backends additionally need
    distinct rows *and* distinct clients: duplicate rows would race on
    one buffer slice; a duplicate client would train both legs from the
    same RNG snapshot (serial advances the stream between legs),
    silently breaking the bit-identical contract — so both are errors
    rather than divergences.
    """
    if not len(active) == len(plans) == len(rows):
        raise ValueError(
            f"cannot submit legs: got {len(active)} active clients but "
            f"{len(plans)} dispatch plans (and {len(rows)} upload rows); "
            "cohort, plans and rows must align"
        )
    shape, dtype = (uploads.layout.total_size,), uploads.dtype
    for plan in plans:
        for which, hook in (("loss_hook", plan.loss_hook), ("grad_hook", plan.grad_hook)):
            if hook is not None and not isinstance(hook, HookSpec):
                raise TypeError(
                    f"DispatchPlan.{which} is a {type(hook).__name__}, not a "
                    "repro.fl.hooks.HookSpec; dispatch hooks as picklable specs"
                )
        flat = plan.flat
        if flat.shape != shape or flat.dtype != dtype:
            raise ValueError(
                f"dispatch row {flat.shape} {flat.dtype} is not a row of the "
                f"{shape} {dtype} upload buffer"
            )
    if not parallel:
        return
    if len(set(rows)) != len(rows):
        raise ValueError(
            "parallel execution backends require unique upload-buffer rows "
            f"per plan, got {list(rows)}"
        )
    ids = [client.client_id for client in active]
    if len(set(ids)) != len(ids):
        raise ValueError(
            "parallel execution backends require each client at most once "
            f"per cohort, got client ids {ids}"
        )


class LegGroup:
    """One submission batch of in-flight training legs.

    What :meth:`ExecutionBackend.submit_group` returns and every
    schedule consumes: ``futures[j]`` resolves to the backend's raw
    per-leg payload, ``finalize(j, raw)`` turns it into a landed
    :class:`~repro.fl.trainer.LocalResult` on the *caller's* thread
    (the process backend's client-RNG restore), and
    ``leg_done()`` — called once per leg after it is finalized, failed
    or drained — releases group-scoped resources (the process backend's
    hold on the dispatch rows) once every leg is accounted for.
    """

    __slots__ = ("futures", "_finalize", "_release", "outstanding")

    def __init__(self, futures, finalize=None, release=None) -> None:
        self.futures = list(futures)
        self._finalize = finalize
        self._release = release
        self.outstanding = len(self.futures)

    def finalize(self, j: int, raw):
        return raw if self._finalize is None else self._finalize(j, raw)

    def leg_done(self) -> None:
        self.outstanding -= 1
        if self.outstanding <= 0 and self._release is not None:
            release, self._release = self._release, None
            release()

    def drain(self) -> None:
        """Discard every leg of a group no stream has consumed: cancel
        queued legs, await in-flight ones, release the group.  Nothing
        is finalized, so no client RNG advances and no upload is booked."""
        _drain(self.futures)
        while self.outstanding > 0:
            self.leg_done()


def _leg_failure(client, row, index: int, kind: str, exc=None, drained=False) -> LegFailure:
    """Structured failure of ``client``'s leg (plan ``index``, upload ``row``)."""
    if exc is None:
        message = "leg did not finish before the wall-clock deadline"
    else:
        message = f"{type(exc).__name__}: {exc}"
    return LegFailure(
        index=int(index),
        client_id=client.client_id,
        row=int(row),
        kind=kind,
        message=message,
        drained=drained,
    )


def _drain(futures) -> None:
    """Cancel queued legs and wait out the in-flight ones.

    Their results are discarded: once this returns no worker can write
    into the reused upload buffer (or advance a client RNG) any more.
    """
    for future in futures:
        future.cancel()
    wait(futures)


def stream_legs(
    group: LegGroup, active, rows, *, capture: bool = False, timeout: float | None = None
) -> "Iterator[tuple[int, LocalResult | LegFailure]]":
    """Yield ``(plan_index, landed leg)`` as ``group``'s legs complete.

    The one as-completed loop behind every ``run*`` schedule.  Legs
    that finish together are yielded in plan order, so ``serial``
    (whose futures arrive resolved) streams the reference schedule.

    Control never leaves the stream while a leg could still write: on
    a leg error (raised, unless ``capture`` turns it into a
    :class:`~repro.faults.policy.LegFailure` and the stream goes on),
    on the consumer abandoning the stream, and at the wall-clock
    ``timeout`` of the whole submission, queued legs are cancelled and
    in-flight ones awaited first.  Timed-out legs are then reported as
    ``timeout`` failures with ``drained=True`` — a retry or carry can
    safely overwrite their rows.  Every leg is ``leg_done()`` by the
    time the stream ends, however it ends.
    """
    index = {future: j for j, future in enumerate(group.futures)}
    pending = set(index)
    deadline = None if timeout is None else time.monotonic() + float(timeout)
    try:
        while pending:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            done, pending = wait(pending, timeout=remaining, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=index.__getitem__):
                j = index[future]
                try:
                    raw = future.result()
                except (KeyboardInterrupt, SystemExit, GeneratorExit):
                    raise
                except BaseException as exc:  # noqa: BLE001 - captured
                    if not capture:
                        raise
                    leg = _leg_failure(active[j], rows[j], j, "error", exc)
                else:
                    leg = group.finalize(j, raw)
                yield j, leg
            if not done and deadline is not None and time.monotonic() >= deadline:
                late, pending = pending, set()
                _drain(late)
                for future in sorted(late, key=index.__getitem__):
                    j = index[future]
                    yield j, _leg_failure(active[j], rows[j], j, "timeout", drained=True)
    finally:
        _drain(pending)
        for _ in group.futures:
            group.leg_done()


# -- backend protocol -------------------------------------------------------
class ExecutionBackend:
    """Runs one round's local-training legs and packs the uploads.

    The contract of a leg: train ``active[i]`` from ``plans[i]``, land
    the trained row in ``uploads`` row ``rows[i]`` and advance the
    client's RNG exactly as serial training would.  A backend implements
    :meth:`submit_group` (and :meth:`reserve` / :meth:`close` when it
    owns pools); the gathered, streaming and fault-capturing schedules
    below are drivers over the returned :class:`LegGroup` and differ
    only in when the caller sees each leg — fully consuming any of them
    leaves the exact same uploads, results and RNG state.
    """

    name = "abstract"
    #: Whether a leg, while it trains, uses state the coordinator also
    #: touches between rounds: the server's trainer (``serial``) or a
    #: client's RNG advanced in place (``thread``).  A backend whose
    #: legs only read what was shipped at submit and book their result
    #: on the caller's thread at finalize (``process``, ``distributed``)
    #: declares ``False``, and the sync driver then evaluates round t
    #: while round t+1's legs train (:func:`repro.fl.scheduler.run_sync_round`).
    legs_use_coordinator = True
    #: Whether legs run in other processes on this node and train in the
    #: server's rows in place (``process``): the server then keeps every
    #: row it dispatches or collects into on a medium those processes
    #: can map (:func:`repro.core.storage.shared_medium`).
    legs_map_rows = False
    #: Whether ``submit_group`` trains every leg before it returns
    #: (``serial``): the async driver then keeps one round in flight.
    legs_done_at_submit = False

    def __init__(
        self,
        spec: TrainerSpec | None = None,
        clients: "Sequence[Client]" = (),
        workers: int | None = None,
    ) -> None:
        self.spec = spec
        self.clients = list(clients)
        self.workers = workers

    def submit_group(
        self,
        trainer: LocalTrainer,
        active: "list[Client]",
        plans: "list[DispatchPlan]",
        rows: Sequence[int],
        uploads: "PoolBuffer",
        attacks: "Mapping[int, AttackSpec] | None" = None,
    ) -> "LegGroup":
        """Validate the cohort, start every leg, return a :class:`LegGroup`.

        The one primitive a backend implements.  Nothing may be
        submitted unless *every* plan is valid (a bad plan ``n`` must
        not leave legs ``0..n-1`` training behind a raised error), and
        the call does not block on pooled backends — the caller owns
        the wait loop and may hold several groups (from different
        rounds) at once.

        ``attacks`` maps plan indices to Byzantine
        :class:`~repro.robust.attacks.AttackSpec`s, handed to
        :func:`run_leg`, which poisons the leg's *upload* where it
        lands — the upload boundary.
        """
        raise NotImplementedError(
            f"execution backend {self.name!r} does not implement submit_group"
        )

    def run_streaming(
        self,
        trainer: LocalTrainer,
        active: "list[Client]",
        plans: "list[DispatchPlan]",
        rows: Sequence[int],
        uploads: "PoolBuffer",
        group: "LegGroup | None" = None,
    ) -> Iterator[tuple[int, LocalResult]]:
        """Yield ``(plan_index, result)`` as legs land; raise on the
        first leg error, after cancelling and draining the rest.

        ``group``: stream these already-submitted legs instead of
        submitting the cohort (a pipelined sync round is submitted
        before it is consumed, and its driver keeps the group to drain
        it should the round be discarded)."""
        if group is None:
            group = self.submit_group(trainer, active, plans, rows, uploads)
        return stream_legs(group, active, rows)

    def run_streaming_captured(
        self,
        trainer: LocalTrainer,
        active: "list[Client]",
        plans: "list[DispatchPlan]",
        rows: Sequence[int],
        uploads: "PoolBuffer",
        timeout: float | None = None,
        attacks: "Mapping[int, AttackSpec] | None" = None,
    ) -> "Iterator[tuple[int, LocalResult | LegFailure]]":
        """Fault-capturing stream: yield a result *or* a ``LegFailure``.

        The resilience engine's seam (:mod:`repro.faults.engine`): a leg
        error is reported as a structured
        :class:`~repro.faults.policy.LegFailure` instead of raising, so
        the remaining legs keep running and the policy layer decides
        what to do — cancel-on-error becomes cancel-on-policy.
        ``timeout`` is the wall-clock deadline for the whole submission
        (see :func:`stream_legs`); it can never fire on ``serial``,
        whose legs are finished before the stream starts — the
        deterministic straggler policy lives in the fault scenario.
        """
        group = self.submit_group(trainer, active, plans, rows, uploads, attacks=attacks)
        return stream_legs(group, active, rows, capture=True, timeout=timeout)

    def run(
        self,
        trainer: LocalTrainer,
        active: "list[Client]",
        plans: "list[DispatchPlan]",
        rows: Sequence[int],
        uploads: "PoolBuffer",
    ) -> list[LocalResult]:
        """The gathered schedule: the stream, drained into plan order."""
        results: list[LocalResult | None] = [None] * len(plans)
        for i, result in self.run_streaming(trainer, active, plans, rows, uploads):
            results[i] = result
        return results

    def reserve(self, width: int) -> None:
        """Hint: up to ``width`` legs may be in flight concurrently.

        The async round scheduler calls this once before overlapping
        rounds so pooled backends can pre-size their worker pools
        instead of growing them mid-flight.  The base implementation is
        a no-op.
        """

    def close(self) -> None:
        """Release pools/buffers; the backend lazily re-creates them on
        the next submission, so close is always safe."""


class UploadState(Mapping):
    """Read-only mapping view of one landed upload row — the ``state``
    of every backend's :class:`~repro.fl.trainer.LocalResult`.

    The row is unflattened (one copy, cached) the first time a value is
    requested and reads as the buffer holds it then: a poisoned or
    quarantined row reads as what aggregation sees.  FedCross never
    asks, so its rounds copy no trained row out of the buffer (on
    ``distributed`` storage: move none to the coordinator).
    """

    def __init__(self, uploads: "PoolBuffer", row: int) -> None:
        self._uploads = uploads
        self._row = int(row)
        self._state: dict | None = None

    def __getitem__(self, key):
        if self._state is None:
            self._state = self._uploads.as_state(self._row, copy=True)
        return self._state[key]

    def __iter__(self):
        return iter(self._uploads.layout.keys)

    def __len__(self) -> int:
        return len(self._uploads.layout.keys)

    def __contains__(self, key) -> bool:
        return key in self._uploads.layout.keys


def run_leg(
    trainer: LocalTrainer,
    flat: np.ndarray,
    dst: np.ndarray,
    dataset,
    rng: np.random.Generator,
    *,
    loss_hook=None,
    grad_hook=None,
    lr_override: float | None = None,
    hypers: dict | None = None,
    attack: "AttackSpec | None" = None,
) -> TrainStats:
    """One leg: train ``flat`` on ``dataset``, land the upload in ``dst``.

    The body every backend runs, wherever the leg happens.  ``flat`` is
    the dispatched ``(P,)`` float32 row; the trainer trains its model
    inside ``trainer.row`` and the trained row is copied into ``dst``,
    a ``(P,)`` row of the upload buffer or of the transport that feeds
    it.  Hook specs resolve against the dispatched state (views of
    ``flat``); ``hypers`` (the live trainer's settings) are applied to a
    private template.  A Byzantine leg (``attack``) trains honestly,
    then overwrites ``dst`` with the poisoned row — the upload boundary,
    so every per-upload consumer sees the attack.  The transform is a
    pure float64 function of ``flat`` and the trained row, so the
    poisoned bytes are the same on every backend and retry.

    Returns the leg's :class:`~repro.fl.trainer.TrainStats`; advances
    ``rng``.
    """
    flat = np.asarray(flat)  # a remote row reference is fetched here
    for field, value in (hypers or {}).items():
        setattr(trainer, field, value)
    if loss_hook is not None or grad_hook is not None:
        state = trainer.layout.unflatten(flat)
        loss_hook, grad_hook = resolve_hook(loss_hook, state), resolve_hook(grad_hook, state)
    stats = trainer.train(
        flat, dataset, rng, loss_hook=loss_hook, grad_hook=grad_hook, lr_override=lr_override
    )
    dst[:] = trainer.row
    if attack is not None:
        from repro.robust.attacks import attacked_row

        dst[:] = attacked_row(attack, trainer.layout, flat, dst)
    return stats


def _leg_in_place(trainer, client, plan, row, uploads, attack, hypers=None) -> LocalResult:
    """One leg in this process, landed through its staged upload row."""
    storage = uploads.storage
    dst = storage.open_row(row)
    scalars = run_leg(
        trainer, plan.flat, dst, client.dataset, client.rng,
        loss_hook=plan.loss_hook, grad_hook=plan.grad_hook,
        lr_override=plan.lr_override, hypers=hypers, attack=attack,
    )
    storage.commit_row(row, dst)
    return LocalResult(UploadState(uploads, row), *scalars)


# The frozen end-to-end harness (benchmarks/e2e/trace.py) attaches its
# spans to ``run_streaming`` / ``run_streaming_captured`` / ``submit_group``
# in each built-in backend's *own* ``__dict__``, so the built-ins re-bind
# the two inherited stream drivers by name; third-party backends just
# inherit them.
@register_execution("serial")
class SerialExecution(ExecutionBackend):
    """The original sequential in-process loop (reference behaviour)."""

    legs_use_coordinator = True  # legs train on the server's own trainer
    legs_done_at_submit = True
    run_streaming = ExecutionBackend.run_streaming
    run_streaming_captured = ExecutionBackend.run_streaming_captured

    def submit_group(
        self, trainer, active, plans, rows, uploads, attacks=None
    ) -> LegGroup:
        # Legs run one at a time on the caller's thread and the futures
        # come back resolved, so every schedule — the async driver
        # included — degenerates to strictly sequential legs in plan
        # order: the reference the equivalence matrix is gated against.
        _check_cohort(active, plans, rows, uploads)
        attacks = attacks or {}
        futures: list[Future] = []
        for j, (client, plan, row) in enumerate(zip(active, plans, rows)):
            future: Future = Future()
            try:
                future.set_result(
                    _leg_in_place(trainer, client, plan, row, uploads, attacks.get(j))
                )
            except (KeyboardInterrupt, SystemExit, GeneratorExit):
                raise
            except BaseException as exc:  # noqa: BLE001 - the leg's outcome
                future.set_exception(exc)
            futures.append(future)
        return LegGroup(futures)


@register_execution("thread")
class ThreadExecution(ExecutionBackend):
    """Persistent thread pool; one private trainer template per worker."""

    # Private trainers, but a leg advances its client's RNG in place.
    legs_use_coordinator = True
    run_streaming = ExecutionBackend.run_streaming
    run_streaming_captured = ExecutionBackend.run_streaming_captured

    def __init__(self, spec=None, clients=(), workers=None) -> None:
        super().__init__(spec, clients, workers)
        self._num_workers = _default_workers(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._free: list[LocalTrainer] = []

    def _ensure_pool(self) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._num_workers, thread_name_prefix="repro-exec"
            )

    def _acquire_trainer(self) -> LocalTrainer:
        # Called from worker threads: pop/append are individually atomic
        # and the empty-pop race is handled by falling through to build
        # (the pool never runs more tasks than workers concurrently, so
        # at most `workers` templates are ever built).
        try:
            return self._free.pop()
        except IndexError:
            pass
        if self.spec is None:
            raise RuntimeError(
                "thread execution backend needs a TrainerSpec to build "
                "per-worker trainer templates"
            )
        return self.spec.build()

    def _leg(self, client, plan, row, uploads, attack, hypers) -> LocalResult:
        trainer = self._acquire_trainer()
        try:
            # Rows are unique, so concurrent writes touch disjoint
            # slices of the upload matrix.
            return _leg_in_place(trainer, client, plan, row, uploads, attack, hypers)
        finally:
            self._free.append(trainer)

    def reserve(self, width: int) -> None:
        # Grow the pool so overlapping rounds never queue behind one
        # cohort's width (ThreadPoolExecutor cannot shrink, only grow).
        width = max(int(width), self._num_workers)
        if self._pool is not None and width > self._num_workers:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._num_workers = width
        self._ensure_pool()

    def submit_group(
        self, trainer, active, plans, rows, uploads, attacks=None
    ) -> LegGroup:
        _check_cohort(active, plans, rows, uploads, parallel=True)
        self._ensure_pool()
        hypers = _trainer_hypers(trainer)
        attacks = attacks or {}
        futures = [
            self._pool.submit(self._leg, client, plan, row, uploads, attacks.get(j), hypers)
            for j, (client, plan, row) in enumerate(zip(active, plans, rows))
        ]
        return LegGroup(futures)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._free.clear()


# -- process backend --------------------------------------------------------
# Worker-process state: trainer template and client shards — built once
# per worker, reused for every (client, round) task.
_WORKER: dict = {}


def _worker_init(spec: TrainerSpec, datasets: dict, blas_cap: int) -> None:
    limit_blas_threads(blas_cap)
    _WORKER["trainer"] = spec.build()
    _WORKER["datasets"] = datasets


def _process_leg(task: dict):
    """One client's leg inside a pool worker: :func:`run_leg` from the
    server's dispatch row into its upload row, both mapped in place for
    this leg only (:func:`~repro.core.storage.open_handle`), on the
    worker's cached shard with the client's shipped RNG state.  Only the
    scalars and the advanced RNG state return."""
    from repro.core.storage import open_handle  # lazy: core imports fl

    rng = np.random.default_rng()
    rng.bit_generator.state = task["rng_state"]
    scalars = run_leg(
        _WORKER["trainer"],
        open_handle(task["dispatch"]),
        open_handle(task["upload"]),
        _WORKER["datasets"][task["client_id"]],
        rng,
        loss_hook=task["loss_hook"],
        grad_hook=task["grad_hook"],
        lr_override=task["lr_override"],
        hypers=task["hypers"],
        attack=task["attack"],
    )
    return (*scalars, rng.bit_generator.state)


@register_execution("process")
class ProcessExecution(ExecutionBackend):
    """Persistent worker processes training in the server's own rows."""

    legs_use_coordinator = False
    legs_map_rows = True
    run_streaming = ExecutionBackend.run_streaming
    run_streaming_captured = ExecutionBackend.run_streaming_captured

    def __init__(self, spec=None, clients=(), workers=None) -> None:
        super().__init__(spec, clients, workers)
        self._num_workers = _default_workers(workers)
        self._pool: ProcessPoolExecutor | None = None
        # This process's claim on the CPU budget while the pool lives:
        # the coordinator keeps what its workers leave (repro.utils.cpu).
        self._cpu_hold = None

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        if self.spec is None:
            raise RuntimeError(
                "process execution backend needs a TrainerSpec to build "
                "worker-side trainer templates"
            )
        datasets = {c.client_id: c.dataset for c in self.clients}
        self._pool = ProcessPoolExecutor(
            max_workers=self._num_workers,
            initializer=_worker_init,
            initargs=(self.spec, datasets, blas_share(self._num_workers)),
        )
        self._cpu_hold = reserve_for_children(self._num_workers)

    def _drop_pool(self) -> None:
        """Reap the workers, then give their parent its BLAS width back
        (also when the shutdown is interrupted)."""
        pool, self._pool = self._pool, None
        hold, self._cpu_hold = self._cpu_hold, None
        try:
            if pool is not None:
                pool.shutdown(wait=True)
        finally:
            if hold is not None:
                hold.release()

    def reserve(self, width: int) -> None:
        width = max(int(width), self._num_workers)
        if width > self._num_workers:
            self._drop_pool()  # rebuilt, and the budget re-cut, on next use
        self._num_workers = width

    def worker_blas_threads(self) -> "int | None":
        """BLAS pool width inside a worker (``None``: no known BLAS)."""
        self._ensure_pool()
        return self._pool.submit(blas_threads).result()

    def submit_group(
        self, trainer, active, plans, rows, uploads, attacks=None
    ) -> LegGroup:
        """Submit one future per leg, each naming its dispatch row and
        its upload row by handle (:func:`~repro.core.storage.row_handle`):
        the worker reads and trains in the server's rows in place, so no
        model is copied on either side.  Hook specs ride each task's
        pickle as they are.  The group holds the dispatch rows until its
        last leg is done, so no row a worker may still read is recycled.
        """
        from repro.core.storage import row_handle  # lazy: core imports fl

        _check_cohort(active, plans, rows, uploads, parallel=True)
        dispatch = [row_handle(plan.flat) for plan in plans]
        upload = [row_handle(uploads.storage.row(row)) for row in rows]
        if None in dispatch or None in upload:
            raise ValueError(
                "process legs train in the server's rows: every dispatch and "
                "upload row must live in shared memory or a memmap file "
                "(a server allocates them there for this backend)"
            )
        self._ensure_pool()
        hypers = _trainer_hypers(trainer)
        attacks = attacks or {}
        futures = [
            self._pool.submit(
                _process_leg,
                {
                    "client_id": active[j].client_id,
                    "rng_state": active[j].rng.bit_generator.state,
                    "dispatch": dispatch[j],
                    "upload": upload[j],
                    "loss_hook": plan.loss_hook,
                    "grad_hook": plan.grad_hook,
                    "lr_override": plan.lr_override,
                    "hypers": hypers,
                    "attack": attacks.get(j),
                },
            )
            for j, plan in enumerate(plans)
        ]

        def land(j: int, raw) -> LocalResult:
            *scalars, rng_state = raw
            active[j].rng.bit_generator.state = rng_state
            return LocalResult(UploadState(uploads, rows[j]), *scalars)

        held = [plan.flat for plan in plans]
        return LegGroup(futures, land, held.clear)

    def close(self) -> None:
        self._drop_pool()


# The socket-RPC backend lives in its own package and is imported only
# when actually selected (see Registry.lazy) — it still shows up in
# available_executions() and is a valid FLConfig.execution.
EXECUTION_BACKENDS.lazy("distributed", "repro.distributed.execution")
