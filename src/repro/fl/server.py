"""Federated server base class — the phased round protocol.

Algorithm 1's server loop is naturally phased, and every reproduced
method is expressed against the same four overridable phases, driven by
the shared :meth:`FederatedServer.fit` loop:

``select_cohort()``
    Pick the round's active clients (uniform sampling by default;
    CluSamp overrides with cluster-stratified sampling).
``dispatch(active)``
    Build one :class:`DispatchPlan` per active client: the model row to
    train from plus optional loss/grad hooks (FedProx's proximal term,
    SCAFFOLD's control variates, FedGen's distillation) and free-form
    ``context`` carried through to aggregation.
``collect(active, plans)``
    Run local training and gather uploads (or, when the pipelined sync
    driver already submitted them with :meth:`~FederatedServer
    .start_collect`, consume those legs).  The default implementation
    hands the cohort to the server's execution backend,
    ``server.executor`` (``serial`` | ``thread`` | ``process`` |
    ``distributed``, selected by ``config.execution`` /
    ``config.workers``), which trains each plan
    and packs the uploaded state into a reused server-side
    :class:`~repro.core.pool.PoolBuffer` row (``plan.context["row"]``,
    defaulting to the client's position), so aggregation is array ops
    instead of per-key dict loops.  All execution backends reproduce
    the serial schedule bit-for-bit (see :mod:`repro.fl.execution`).
``aggregate(active, results, plans)``
    The method-specific model update; returns a dict of extras stored
    on the round record.  FedAvg-family methods reduce the upload
    buffer with one BLAS matvec (:meth:`aggregate_uploads`).

The server holds models as rows, like its legs: the FedAvg family's
global model is one float32 row in ``trainer.layout``
(:meth:`FederatedServer.global_row`) that aggregates replace and never
write, so plans share it.  A model crosses between state dict and row
only at the API boundary, :meth:`~FederatedServer.global_state` and
:meth:`~FederatedServer.set_global_state`.

``run_round`` is the phase driver; methods whose round is not the
dispatch→collect→aggregate shape (FedCluster's cyclic cluster schedule)
may still override it wholesale — but then the round policy of
:mod:`repro.faults`, which acts inside ``collect``, cannot be engaged.

:class:`~repro.fl.callbacks.ServerCallback` hooks (``on_round_start``,
``on_evaluate``, ``on_round_end``, ``on_fit_end``) observe the loop and
may set ``server.stop_training`` to end training early.  The pool/upload
buffers live on the storage backend named by ``config.backend``
(``dense`` | ``memmap`` | ``sharded`` | ``distributed`` — see
:mod:`repro.core.storage` and :mod:`repro.distributed.storage`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.federated import FederatedDataset
from repro.fl.client import Client
from repro.fl.comm import CommunicationLedger
from repro.fl.config import FLConfig, parse_knobs
from repro.fl.execution import ExecutionBackend, LegGroup, TrainerSpec, resolve_execution
from repro.fl.hooks import HookSpec
from repro.fl.metrics import RoundRecord, TrainingHistory, evaluate_model
from repro.fl.trainer import LocalResult, LocalTrainer
from repro.nn.module import Module
from repro.utils.layout import StateLayout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pool import PoolBuffer
    from repro.fl.callbacks import ServerCallback

__all__ = ["DispatchPlan", "FederatedServer"]


def _check_roundtrip(layout: StateLayout, state: Mapping[str, np.ndarray]) -> None:
    """Refuse, naming the field, a key, shape or value (of any dtype but
    float32) that the float32 row would not carry exactly.  The way back
    needs no check: a trainer trains float32 models only."""
    missing = sorted(set(layout.keys) - set(state))
    extra = sorted(set(state) - set(layout.keys))
    if missing or extra:
        raise ValueError(
            f"state keys do not match the model: missing {missing}, unexpected {extra}"
        )
    for spec in layout.fields:
        value = np.asarray(state[spec.key])
        if value.shape != spec.shape:
            raise ValueError(
                f"field {spec.key!r} has shape {value.shape}, the model's is {spec.shape}"
            )
        if value.dtype == np.float32 or not value.size:
            continue
        if not np.array_equal(value.astype(np.float32).astype(value.dtype), value):
            raise ValueError(
                f"field {spec.key!r} ({value.dtype}) does not survive the float32 "
                "global row; use float32-exact states"
            )


@dataclass
class DispatchPlan:
    """What one active client receives for its local-training leg.

    ``flat`` is the model as one ``(P,)`` float32 row, shared, never
    copied: :meth:`FederatedServer.global_row` itself for the FedAvg
    family, or a FedCross pool row as is.

    ``context`` is free-form method state threaded from ``dispatch`` to
    ``aggregate`` (e.g. SCAFFOLD's per-client control variate); it stays
    on the server and is never shipped to execution workers. The
    reserved key ``"row"`` names the upload-buffer row the client's
    result is packed into (defaults to the client's cohort position;
    FedCross uses it to keep rows in middleware-model order).

    ``loss_hook`` / ``grad_hook`` are picklable
    :class:`~repro.fl.hooks.HookSpec` s (or ``None``) on every execution
    backend, resolved where the training executes; any other value is
    refused before a leg runs.  Specs with per-client state keep every
    backend bit-identical.
    """

    flat: np.ndarray
    loss_hook: "HookSpec | None" = None
    grad_hook: "HookSpec | None" = None
    lr_override: float | None = None
    context: dict = field(default_factory=dict)


@dataclass
class StartedLegs:
    """A round's legs, submitted by :meth:`FederatedServer.start_collect`
    ahead of the :meth:`~FederatedServer.collect` that consumes
    ``stream``.  ``group`` is kept so a discarded round can be drained
    (:meth:`~repro.fl.execution.LegGroup.drain`) with no leg finalized."""

    active: list
    plans: list
    rows: list
    group: LegGroup
    stream: Iterator


class FederatedServer:
    """Base class for all FL methods.

    Parameters
    ----------
    config:
        The run specification.
    fed_dataset:
        Client shards + global test set.
    model:
        The shared scratch model (also used for evaluation).
    trainer:
        Local-training engine bound to ``model``.
    clients:
        The full client population.
    rng:
        Server-side generator (client sampling, shuffling, ...).
    callbacks:
        :class:`~repro.fl.callbacks.ServerCallback` hooks observing the
        ``fit`` loop.
    executor:
        Optional pre-built :class:`~repro.fl.execution.ExecutionBackend`;
        by default the backend named by ``config.execution`` is built
        with ``config.workers``.  Either way the server holds it as
        ``self.executor`` and closes it when collected.
    model_factory:
        Zero-argument picklable callable rebuilding the model template —
        used by parallel execution backends to give every worker its own
        model/trainer.  The simulation wires this automatically; when
        omitted, workers deep-copy ``trainer.model`` (which the
        ``process`` backend can only do if the model pickles).

    ``config.method_params`` is parsed first into ``self.options``, the
    method's ``Options`` knob table (the base declares none).
    """

    name = "base"

    @dataclass(frozen=True)
    class Options:
        pass

    def __init__(
        self,
        config: FLConfig,
        fed_dataset: FederatedDataset,
        model: Module,
        trainer: LocalTrainer,
        clients: Sequence[Client],
        rng: np.random.Generator,
        callbacks: "Iterable[ServerCallback] | None" = None,
        executor: ExecutionBackend | None = None,
        model_factory=None,
    ) -> None:
        self.config = config
        self.options = parse_knobs(
            self.Options, config.method_params, f"{self.name} method_params"
        )
        self.fed_dataset = fed_dataset
        self.model = model
        self.trainer = trainer
        self.clients = list(clients)
        self.rng = rng
        self.callbacks: list[ServerCallback] = list(callbacks or [])
        self.ledger = CommunicationLedger()
        self.history = TrainingHistory()
        self.model_size = model.num_parameters()
        self.round_idx = 0
        self.stop_training = False
        self.backend = config.backend
        # Resilience: the seeded fault model (None without a scenario)
        # and the round policy the engine enforces.  Built before the
        # storage options so an engaged non-`fail` policy can ask the
        # distributed backend for replicated (failover-capable) buffers.
        if config.faults is not None:
            from repro.faults.model import ClientPopulation  # lazy

            self.fault_model = ClientPopulation(
                config.faults,
                seed=config.seed,
                num_clients=len(self.clients),
            )
        else:
            self.fault_model = None
        from repro.faults.policy import RoundPolicy  # lazy, stdlib-only

        self.fault_policy = RoundPolicy.from_config(config)
        # The round's fault record (None unless engaged), its final failures.
        self.round_faults = None
        self.last_leg_failures: list = []
        # Injectable seams: ``fault_sleep`` replaces the resilience
        # engine's backoff sleep (tests wait in virtual time) and
        # ``round_scheduler`` overrides the config-built schedule.
        self.fault_sleep = None
        self.round_scheduler = None
        # Aggregation operator for both aggregation sites (CrossAggr
        # blends and GlobalModelGen / upload averaging).  The default
        # "mean" delegates to mean_state/cross_aggregate and is bitwise
        # the pre-registry reference path.
        from repro.robust.operators import build_operator  # lazy

        self.aggregator = build_operator(config.aggregator, config.aggregator_params)
        self.screen = config.screen
        self.last_suspects: list = []
        # Storage options forwarded to the pool backend's allocate();
        # only option-accepting backends (sharded) see a non-empty dict.
        self.backend_options: dict = {}
        for option, value in (
            ("shards", config.shards),
            ("placement", config.shard_placement),
            ("hosts", config.hosts),
        ):
            if value is not None:
                self.backend_options[option] = value
        if (
            self.backend == "distributed"
            and self.fault_policy.engaged
            and self.fault_policy.failure_policy != "fail"
        ):
            # Coordinator-side row mirror: a killed shard host can be
            # respawned and its rows restored instead of raising.
            self.backend_options["replicate"] = True
        self.executor = executor or resolve_execution(config.execution)(
            spec=TrainerSpec.from_trainer(trainer, model_factory),
            clients=self.clients,
            workers=config.workers,
        )
        weakref.finalize(self, self.executor.close)
        # The options of every buffer whose rows legs read or land in
        # (pool, uploads).  Legs that map the server's rows from other
        # processes need them, and the global row, on a medium those
        # processes can map: one shared family for the server's life,
        # whose segments (or files) are recycled round after round.
        from repro.core.storage import ShardedStorage, resolve_backend, shared_medium

        self.row_options = dict(self.backend_options)
        self._medium = None
        if self.executor.legs_map_rows and issubclass(
            resolve_backend(self.backend), ShardedStorage
        ):
            self._medium = shared_medium(
                on_disk="memmap" in (self.backend, config.shard_placement)
            )
            self.row_options["medium"] = self._medium
        # The FedAvg family's deployable model, replaced (never written)
        # by each round's aggregate; FedCross deploys its pool instead.
        self._layout = trainer.layout
        self._global = trainer.row.copy()
        self._uploads: "PoolBuffer | None" = None
        self._upload_rows: list[int] = []
        self._started_legs: StartedLegs | None = None
        # Reused model-layout buffers keyed by (tag, size, dtype):
        # "round" for the default collect, "cohort" for ad-hoc
        # train_cohort calls — distinct tags so the two can never alias
        # within one round.
        self._buffer_cache: dict = {}

    # -- phase hooks ------------------------------------------------------
    def select_cohort(self) -> list[Client]:
        """Pick this round's active clients (uniform K-sample; paper: 10%).

        With a fault scenario the draw is availability-aware (the
        population prefers reachable clients, padding with unavailable
        ones only when fewer than K are up); an all-available round —
        and any run without a scenario — is the exact reference draw.
        """
        k = self.config.clients_per_round
        if self.fault_model is not None:
            return self.fault_model.select_cohort(
                self.clients, k, self.round_idx, self.rng
            )
        idx = self.rng.choice(len(self.clients), size=k, replace=False)
        return [self.clients[i] for i in idx]

    def dispatch(self, active: list[Client]) -> list[DispatchPlan]:
        """One plan per active client; default: the global model, no hooks."""
        flat = self.global_row()
        return [DispatchPlan(flat) for _ in active]

    def collect(
        self, active: list[Client], plans: list[DispatchPlan]
    ) -> list[LocalResult]:
        """Run local training and pack each upload into the pool buffer.

        A thin delegation to the configured execution backend: the
        backend trains every plan (serially or across workers), writes
        each trained state into its upload-buffer row, and the results
        come back in plan order — bit-identical across backends.

        The backend's as-completed stream is consumed: each upload is
        packed — and :meth:`on_upload` fired — the moment its leg
        lands, overlapping server-side per-upload work (e.g. FedCross's
        incremental Gram updates) with still-running training legs.
        Uploads, results and RNG state are bit-identical to the
        gathered run (:meth:`~repro.fl.execution.ExecutionBackend.run`,
        the stream drained into plan order), which the tests keep as
        the oracle.  Legs :meth:`start_collect` submitted for these
        ``plans`` are consumed instead of submitting the cohort again.
        """
        legs = self._started_legs
        if legs is not None and legs.plans is plans:
            self._started_legs = None
            rows, stream = legs.rows, legs.stream
        else:
            uploads, rows = self._collect_target(active, plans)
            if self.fault_policy.engaged:
                # The resilience engine owns the round: simulated faults
                # are pre-dropped, infra failures retried / recovered,
                # and the survivors checked against the quorum.  Never
                # engaged by a default config, so the loop below stays
                # the untouched bit-identical reference.
                from repro.faults.engine import resilient_collect  # lazy

                return resilient_collect(self, active, plans, rows, uploads)
            stream = self.executor.run_streaming(self.trainer, active, plans, rows, uploads)
        results: list[LocalResult | None] = [None] * len(plans)
        for i, result in stream:
            results[i] = result
            self.on_upload(rows[i], result)
        return results

    def start_collect(self, active: list[Client], plans: list[DispatchPlan]) -> None:
        """Submit the round's legs now; the :meth:`collect` of these
        ``plans`` consumes them.  The pipelined sync driver's seam:
        round t+1 trains while round t is evaluated and closed."""
        uploads, rows = self._collect_target(active, plans)
        group = self.executor.submit_group(self.trainer, active, plans, rows, uploads)
        stream = self.executor.run_streaming(
            self.trainer, active, plans, rows, uploads, group=group
        )
        self._started_legs = StartedLegs(active, plans, rows, group, stream)

    def _collect_target(self, active, plans) -> "tuple[PoolBuffer, list[int]]":
        """The round's upload buffer and each plan's row in it."""
        uploads = self._round_uploads(len(active))
        rows = [plan.context.get("row", i) for i, plan in enumerate(plans)]
        self._upload_rows = rows
        self.round_faults = None
        return uploads, rows

    def on_upload(self, row: int, result: LocalResult) -> None:
        """Per-upload hook: ``result`` just landed in buffer row ``row``.

        Called once per collected leg, in completion order while other
        legs are still training.  Overrides must therefore be
        *order-independent* (FedCross's Gram row updates are, by
        construction).  Default: no-op.
        """

    def aggregate(
        self,
        active: list[Client],
        results: list[LocalResult],
        plans: list[DispatchPlan],
    ) -> dict:
        """Method-specific model update; returns round-record extras."""
        raise NotImplementedError

    def run_round(self, active: list[Client]) -> dict:
        """Phase driver: dispatch → collect → aggregate.

        Methods with a fundamentally different round shape (e.g.
        FedCluster's sequential cluster schedule) may override this
        wholesale instead of the individual phases.
        """
        plans = self.dispatch(active)
        results = self.collect(active, plans)
        return self.aggregate(active, results, plans)

    def global_row(self) -> np.ndarray:
        """The deployable model as one float32 row, as held — moved to
        the shared medium first when legs map the server's rows (FedCross
        overrides this, and only this, with its pool average)."""
        from repro.core.storage import row_handle  # lazy: core imports fl

        if self._medium is not None and row_handle(self._global) is None:
            self._global = self._leg_row(self._global)
        return self._global

    def _leg_row(self, row: np.ndarray) -> np.ndarray:
        """A private copy of ``row`` that this server's legs can read."""
        if self._medium is None:
            return row.copy()
        out = self._medium.take((1, row.size), row.dtype)[0]
        out[:] = row
        return out

    def global_state(self) -> dict:
        """The API boundary's way out: the deployable model as a state
        dict of views of :meth:`global_row`."""
        return self._layout.unflatten(self.global_row())

    def set_global_state(self, state: Mapping[str, np.ndarray]) -> None:
        """The API boundary's way in (checkpoint restores), on every
        method: ``state`` is checked (:func:`_check_roundtrip`) before
        anything on the server changes, then installed as a fresh row."""
        _check_roundtrip(self._layout, state)
        self._install_global_row(self._layout.flatten(state, dtype=np.float32))

    def _install_global_row(self, row: np.ndarray) -> None:
        """Make the checked ``row`` the deployable model (FedCross:
        broadcast it over the pool)."""
        self._global = row

    # -- pool-backed aggregation helpers -----------------------------------
    def _model_buffer(self, tag: str, k: int) -> "PoolBuffer":
        """Reused ``(k, P)`` model-layout buffer on the configured backend.

        One allocation per (tag, size) for the whole run; the returned
        buffer is overwritten by the next same-key call.
        """
        from repro.core.pool import PoolBuffer  # lazy: avoids fl<->core cycle

        buf = self._buffer_cache.get((tag, k))
        if buf is None:
            buf = PoolBuffer.zeros(
                self._layout, k, dtype=np.float32, backend=self.backend,
                backend_options=self.row_options,
            )
            self._buffer_cache[(tag, k)] = buf
        return buf

    def _round_uploads(self, k: int) -> "PoolBuffer":
        """The reused ``(k, P)`` upload buffer on the configured backend."""
        self._uploads = self._model_buffer("round", k)
        return self._uploads

    def _recycle_round_uploads(self, buf: "PoolBuffer") -> None:
        """Make ``buf`` the next round's upload buffer in place of the one
        this round consumed (FedCross blends its pool into the uploads
        and hands its old pool back: two ``(K, P)`` buffers in all)."""
        self._buffer_cache[("round", len(buf))] = buf

    @property
    def uploads(self) -> "PoolBuffer | None":
        """The current round's packed upload buffer (None before round 1;
        after a FedCross aggregate, the buffer it consumed)."""
        return self._uploads

    def train_cohort(
        self, members: list[Client], plans: list[DispatchPlan]
    ) -> "tuple[list[LocalResult], PoolBuffer]":
        """Train an ad-hoc cohort through the execution backend.

        For schedules outside the default phase driver (e.g.
        FedCluster's per-cluster visits): trains ``members`` from
        ``plans`` on the configured backend and returns the results
        plus the packed upload buffer (reused per cohort size, valid
        until the next same-size call).
        """
        buf = self._model_buffer("cohort", len(members))
        rows = [plan.context.get("row", i) for i, plan in enumerate(plans)]
        results = self.executor.run(self.trainer, members, plans, rows, buf)
        return results, buf

    def aggregate_uploads(self, results: Sequence[LocalResult]) -> np.ndarray:
        """Weighted reduction of the collected uploads, as a fresh row.

        Routed through the configured aggregation operator; the default
        ``mean`` is one BLAS matvec over the upload buffer.  Weights
        follow the buffer-row placement recorded by ``collect`` (the
        ``plan.context["row"]`` feature), so custom row assignments
        cannot silently misweight the average (rank-based robust
        operators ignore them by design).
        """
        if self._uploads is None or len(self._uploads) != len(results):
            raise RuntimeError("collect() must pack uploads before aggregation")
        weights = [0.0] * len(results)
        for row, result in zip(self._upload_rows, results):
            weights[row] = result.num_samples
        return self.aggregator.combine(self._uploads, weights, precise=False)

    def _draws(self):
        """What starting a round draws from — the server generator
        (cohort sampling, FedCross's shuffle) — for :meth:`_rewind_draws`
        when the driver discards a started round.  (A fault model's
        draws are keyed by round, not stateful.)"""
        return self.rng.bit_generator.state

    def _rewind_draws(self, draws) -> None:
        self.rng.bit_generator.state = draws

    # -- shared machinery ------------------------------------------------
    def evaluate(self) -> tuple[float, float]:
        """Accuracy/loss of the deployable global model on the test set.

        Binds the global row into ``trainer.row`` as a leg does; no
        graph is recorded, so no captured view outlives the call."""
        self.trainer.bind(self.global_row())
        return evaluate_model(
            self.model, self.fed_dataset.test, batch_size=self.config.eval_batch_size
        )

    def fit(
        self,
        rounds: int | None = None,
        callbacks: "Iterable[ServerCallback] | None" = None,
    ) -> TrainingHistory:
        """Run the FL training loop and return the history.

        ``callbacks`` are invoked *in addition to* the server's own
        ``self.callbacks``, in registration order.  A callback setting
        ``self.stop_training`` ends the loop after the current round.
        """
        rounds = rounds if rounds is not None else self.config.rounds
        cbs = self.callbacks + list(callbacks or [])
        self.stop_training = False
        # The round *schedule* is pluggable (repro.fl.scheduler): the
        # default "sync" scheduler blocks each round on its slowest
        # leg, while "async" overlaps rounds under a bounded-staleness
        # window.  An
        # explicitly injected ``round_scheduler`` wins over the config
        # (the test seam for injectable clocks).
        from repro.fl.scheduler import build_round_scheduler  # lazy: cycle

        scheduler = self.round_scheduler or build_round_scheduler(self.config)
        scheduler.run(self, rounds, cbs)
        # Method finalisation runs before callback on_fit_end hooks, so
        # diagnostics snapshot the *trained* state, not one mutated by
        # e.g. a checkpointer's best-state restore.
        self.finalize_fit(self.history)
        for cb in cbs:
            cb.on_fit_end(self, self.history)
        return self.history

    def finalize_fit(self, history: TrainingHistory) -> None:
        """Method-specific end-of-fit bookkeeping (default: none).

        Invoked by :meth:`fit` after the last round but before callback
        ``on_fit_end`` hooks may mutate server state.
        """

    # -- convenience -------------------------------------------------------
    def mean_local_loss(self, results) -> float:
        """Sample-weighted mean of local losses (progress diagnostic)."""
        total = sum(r.num_samples for r in results)
        if total == 0:
            return float("nan")
        return sum(r.mean_loss * r.num_samples for r in results) / total

    def charge_round_communication(
        self, active: list[Client], down_surcharge: int = 0, up_surcharge: int = 0
    ) -> None:
        """Bill the round's leg traffic — the ledger's one writer.

        Every counted leg moves one model plus the method's per-leg
        surcharge (SCAFFOLD's control variate both ways, FedGen's
        generator down): ``downs × (P + down_surcharge)`` down and
        ``ups × (P + up_surcharge)`` up.  ``downs`` / ``ups`` are the
        round's fault record counts (one down per (re)submission, one
        up per fresh landing; pre-dropped and carried legs move
        nothing), or ``len(active)`` each for a round without one.  The
        same on every execution backend, sync or async.
        """
        downs = ups = len(active)
        if self.round_faults is not None:
            downs, ups = self.round_faults.downs, self.round_faults.ups
        self.ledger.record_down(downs * (self.model_size + down_surcharge))
        self.ledger.record_up(ups * (self.model_size + up_surcharge))
