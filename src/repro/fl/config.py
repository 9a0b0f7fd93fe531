"""Experiment configuration.

One frozen dataclass describes an FL run end to end — dataset, model,
client population, local-training hyper-parameters and method-specific
options — mirroring the settings table of Section IV-A: batch size 50,
five local epochs, SGD(lr=0.01, momentum=0.5), 10% participation.
CPU-scaled defaults shrink the population/rounds, not the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = ["FLConfig"]


@dataclass(frozen=True)
class FLConfig:
    """Full specification of one federated-learning run.

    Attributes
    ----------
    method:
        Registered method name: ``fedavg``, ``fedprox``, ``scaffold``,
        ``fedgen``, ``clusamp`` or ``fedcross``.
    dataset / model:
        Names resolved by :func:`repro.data.build_federated_dataset`
        and :func:`repro.models.build_model`.
    heterogeneity:
        ``"iid"`` or a Dirichlet β (float) — the paper's Dir(β) knob.
    num_clients:
        Total population ``N`` (|C| in the paper).
    participation:
        Fraction of clients active per round; the paper uses 0.1.
        ``k_active`` overrides with an absolute count (Figure 6).
    local_epochs / batch_size / lr / momentum:
        Client-side SGD settings (paper: 5 / 50 / 0.01 / 0.5).
    rounds:
        FL training rounds.
    eval_every:
        Global-model evaluation cadence in rounds.
    backend:
        Pool-storage backend for the server's model buffers —
        ``"dense"`` (in-memory, default), ``"memmap"`` (file-backed
        for pools beyond RAM) or ``"sharded"`` (row shards, each
        dense or memmap — pools beyond one allocation); see
        :mod:`repro.core.storage`.  Resolved lazily against the
        backend registry, so third-party backends registered via
        ``register_backend`` are valid too.
    shards:
        Row-shard count for the ``sharded`` backend (``None`` = the
        backend default: ``REPRO_POOL_SHARDS`` or 4).  Forwarded to
        the backend as a storage option, so only set it for backends
        that accept it (``dense``/``memmap`` reject options loudly).
    shard_placement:
        Storage medium of each row shard of the ``sharded`` backend —
        ``"dense"`` (backend default) or ``"memmap"`` (shards on disk:
        the pools-beyond-RAM layout).  Forwarded like ``shards``.
        The ``distributed`` backend accepts it too (each shard host's
        local medium).
    hosts:
        Shard-host process count for the ``distributed`` backend
        (``None`` = the backend default: ``REPRO_POOL_HOSTS`` or 2).
        Forwarded as a storage option like ``shards``, so only set it
        for the ``distributed`` backend.
    execution:
        Client-execution backend for the ``collect`` phase —
        ``"serial"`` (default), ``"thread"``, ``"process"`` or
        ``"distributed"`` (legs co-located with their upload shards;
        requires ``backend="distributed"``); see
        :mod:`repro.fl.execution`.  All backends are guaranteed to
        produce bit-identical training histories; parallel backends
        trade startup overhead for multi-core round throughput.
        Resolved lazily against the execution registry.
    workers:
        Worker count for parallel execution backends (``None`` = one
        per usable core — the scheduler affinity mask, see
        :mod:`repro.utils.cpu`).  Ignored by ``serial``.
    array_backend:
        Array backend every tensor/nn/optim operation dispatches
        through — ``None`` (default) keeps the process-wide active
        backend (``REPRO_ARRAY_BACKEND`` or ``"numpy"``); a name such
        as ``"numpy"`` pins the run, including process workers, to
        that backend; see :mod:`repro.tensor.backend`.  The ``numpy``
        backend is bit-identical to direct-numpy execution.  Resolved
        lazily against the array-backend registry.
    round_mode:
        Round schedule (:mod:`repro.fl.scheduler`): ``"sync"``
        (default — the reference schedule, each round blocks on its
        slowest leg) or ``"async"`` — dispatch of round ``t+1`` begins
        while round ``t`` stragglers finish, bounded by
        ``max_staleness``.  ``async`` with ``max_staleness=0`` is the
        ``sync`` schedule (the scheduler defers to it).
    max_staleness:
        Bounded-staleness window ``S`` for ``round_mode="async"``: up
        to ``S+1`` rounds may be in flight, and a pool row is blended
        only by the *newest* round that trained it — a row trained
        against a pool version more than ``S`` rounds old is never
        blended stale (its late upload is discarded as wasted work).
        ``0`` (default) keeps the sequential schedule.
    faults:
        Client-fault scenario for the resilience layer
        (:mod:`repro.faults`): a mapping of
        :class:`~repro.faults.model.FaultScenario` knobs
        (``availability``, ``dropout``, ``slow_prob``, ``slow_factor``,
        ``straggler_timeout``, plus the adversarial ``byzantine_frac``,
        ``attack``, ``attack_scale``), inline JSON, or a path to a
        committed scenario file.  ``None`` (default) disables the fault
        model.  Faults are decided server-side under ``seed`` before
        legs are dispatched, so every execution backend sees the
        identical pattern.
    quorum:
        Fraction of the cohort that must deliver *fresh* uploads for a
        round to count (default 1.0 — every leg).  A round falling
        below it raises :class:`~repro.faults.policy.QuorumError`.
    failure_policy:
        What happens to a failed leg: ``"fail"`` (default — abort the
        round, today's bit-identical reference), ``"carry"`` (keep the
        stale middleware row so CrossAggr/GramTracker stay consistent)
        or ``"redispatch"`` (one extra reissue to a healthy
        worker/host, then carry).
    leg_timeout:
        Wall-clock seconds a parallel backend waits for in-flight legs
        before declaring the rest timed out (``None`` disables; the
        serial backend ignores it).  Late work is drained and
        discarded — never written after control returns.  For a
        *deterministic* straggler policy use the scenario's
        ``straggler_timeout`` instead.
    leg_retries:
        Bounded retries for infrastructure leg failures (errors /
        timeouts), with exponential backoff from ``leg_backoff``.
        Simulated faults (dropout, churn) are never retried.
    leg_backoff:
        Base backoff delay in seconds; retry ``i`` sleeps
        ``leg_backoff * 2**(i-1)``.
    aggregator:
        Aggregation operator applied to both CrossAggr collaborator
        blends and GlobalModelGen / upload averaging — ``"mean"``
        (default, bitwise the reference path), ``"trimmed_mean"``,
        ``"coordinate_median"`` or ``"norm_clip"``; see
        :mod:`repro.robust.operators`.  Resolved lazily against the
        operator registry.
    aggregator_params:
        Operator knobs, e.g. ``{"trim": 0.25}`` for ``trimmed_mean``
        or ``{"clip_factor": 3.0}`` for any robust operator.  Unknown
        knobs are rejected loudly.
    screen:
        Gram-based anomaly screening of landed uploads
        (:mod:`repro.robust.screen`): ``None`` (default, off),
        ``"flag"`` (record suspects in history extras and fire
        ``on_suspect_upload``) or ``"carry"`` (additionally quarantine
        flagged rows by restoring their dispatched middleware state
        before selection/aggregation).
    method_params:
        Method-specific options, e.g. ``{"mu": 0.01}`` for FedProx or
        ``{"alpha": 0.99, "selection": "lowest"}`` for FedCross.
    """

    method: str = "fedavg"
    dataset: str = "synth_cifar10"
    model: str = "mlp"
    heterogeneity: str | float = "iid"
    num_clients: int = 20
    participation: float = 0.5
    k_active: int | None = None
    local_epochs: int = 5
    batch_size: int = 50
    lr: float = 0.01
    momentum: float = 0.5
    weight_decay: float = 0.0
    rounds: int = 20
    eval_every: int = 1
    eval_batch_size: int = 256
    backend: str = "dense"
    shards: int | None = None
    shard_placement: str | None = None
    hosts: int | None = None
    execution: str = "serial"
    workers: int | None = None
    array_backend: str | None = None
    round_mode: str = "sync"
    max_staleness: int = 0
    faults: Any = None
    quorum: float = 1.0
    failure_policy: str = "fail"
    leg_timeout: float | None = None
    leg_retries: int = 0
    leg_backoff: float = 0.05
    aggregator: str = "mean"
    aggregator_params: dict[str, Any] = field(default_factory=dict)
    screen: str | None = None
    seed: int = 0
    dataset_params: dict[str, Any] = field(default_factory=dict)
    model_params: dict[str, Any] = field(default_factory=dict)
    method_params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if not 0.0 < self.participation <= 1.0:
            raise ValueError("participation must be in (0, 1]")
        if self.k_active is not None and not 1 <= self.k_active <= self.num_clients:
            raise ValueError("k_active must be in [1, num_clients]")
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if self.local_epochs <= 0:
            raise ValueError("local_epochs must be positive")
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError("backend must be a non-empty backend name")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be None or >= 1")
        if self.shard_placement is not None and (
            not isinstance(self.shard_placement, str) or not self.shard_placement
        ):
            raise ValueError("shard_placement must be None or a backend name")
        if self.hosts is not None and self.hosts < 1:
            raise ValueError("hosts must be None or >= 1")
        if not isinstance(self.execution, str) or not self.execution:
            raise ValueError("execution must be a non-empty backend name")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be None or >= 1")
        if self.array_backend is not None and (
            not isinstance(self.array_backend, str) or not self.array_backend
        ):
            raise ValueError("array_backend must be None or a backend name")
        if self.round_mode not in ("sync", "async"):
            raise ValueError(
                f"round_mode must be 'sync' or 'async', got {self.round_mode!r}"
            )
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if self.faults is not None and not isinstance(self.faults, (str, Mapping)):
            raise ValueError(
                "faults must be None, a scenario mapping, inline JSON or a "
                "scenario file path"
            )
        # quorum / failure_policy / leg_timeout / leg_retries /
        # leg_backoff: the RoundPolicy they become holds their checks.
        from repro.faults.policy import RoundPolicy  # lazy: avoids import cycle

        RoundPolicy.from_config(self)
        if not isinstance(self.aggregator, str) or not self.aggregator:
            raise ValueError("aggregator must be a non-empty operator name")
        if not isinstance(self.aggregator_params, Mapping):
            raise ValueError("aggregator_params must be a mapping of knobs")
        if self.screen not in (None, "flag", "carry"):
            raise ValueError(
                f"screen must be None, 'flag' or 'carry', got {self.screen!r}"
            )

    @property
    def clients_per_round(self) -> int:
        """K — the number of active clients per round."""
        if self.k_active is not None:
            return self.k_active
        return max(1, int(round(self.participation * self.num_clients)))

    def with_method(self, method: str, **method_params) -> "FLConfig":
        """Copy of this config running a different method.

        Keeps everything else (dataset, seeds, client settings) fixed —
        the comparison-fairness idiom used by every experiment.
        """
        return replace(self, method=method, method_params=dict(method_params))

    def replace(self, **changes) -> "FLConfig":
        """Dataclass ``replace`` with a friendlier name."""
        return replace(self, **changes)
