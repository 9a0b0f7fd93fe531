"""Experiment configuration.

One frozen dataclass describes an FL run end to end — dataset, model,
client population, local-training hyper-parameters and method-specific
options — mirroring the settings table of Section IV-A: batch size 50,
five local epochs, SGD(lr=0.01, momentum=0.5), 10% participation.
CPU-scaled defaults shrink the population/rounds, not the algorithm.

Each field is a *knob* declared once by :func:`knob`
(:mod:`repro.utils.knobs`, re-exported here).
:mod:`repro.cli` builds its parser from these fields and renders the
README flag table from them; ``__post_init__`` runs each knob's own
check (:func:`check_knobs`) and then the cross-field :data:`RULES`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.utils.knobs import (
    NON_NEGATIVE, POSITIVE, check_knobs, knob, knob_error, load, parse_knobs,
)

__all__ = ["FLConfig", "RULES", "check_knobs", "knob", "knob_error", "parse_knobs"]


def _heterogeneity(value: str):
    """``--beta``: ``"iid"`` or a Dirichlet β."""
    return "iid" if value.lower() == "iid" else float(value)


def _json_object(value: str) -> dict:
    import json  # lazy: parsing a flag is the only use

    parsed = json.loads(value)
    if not isinstance(parsed, dict):
        raise ValueError(f"not a JSON object: {value!r}")
    return parsed


@dataclass(frozen=True)
class FLConfig:
    """Full specification of one federated-learning run.

    Each field's meaning is its knob's ``help`` — read it with
    ``python -m repro run --help`` or in README's flag table.
    """

    method: str = knob(
        "--method", "fedavg", "run",
        "FL method: a registered name (see `repro list`); `run` defaults to fedcross.",
        registry="repro.fl.registry:METHODS",
    )
    dataset: str = knob(
        "--dataset", "synth_cifar10", "run",
        "Federated dataset: a registered name (see `repro list`).",
        registry="repro.data.federated:DATASET_BUILDERS",
    )
    model: str = knob(
        "--model", "mlp", "run", "Client model: a registered name (see `repro list`).",
        registry="repro.models.registry:MODEL_BUILDERS",
    )
    heterogeneity: str | float = knob(
        "--beta", "iid", "population",
        'Client data split: "iid" or a Dirichlet beta (the paper\'s Dir(beta)).',
        type=_heterogeneity,
    )
    num_clients: int = knob(
        "--clients", 20, "population", "Total client population N.", check=POSITIVE
    )
    participation: float = knob(
        "--participation", 0.5, "population",
        "Fraction of clients active per round (paper: 0.1).",
        check=(lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    )
    k_active: int | None = knob(
        "--k-active", None, "population",
        "Absolute active-client count per round; overrides --participation.",
        type=int, check=POSITIVE,
    )
    local_epochs: int = knob(
        "--local-epochs", 5, "training", "Client SGD epochs per leg (paper: 5).",
        check=POSITIVE,
    )
    batch_size: int = knob(
        "--batch-size", 50, "training", "Client SGD batch size (paper: 50)."
    )
    lr: float = knob("--lr", 0.01, "training", "Client SGD learning rate (paper: 0.01).")
    momentum: float = knob(
        "--momentum", 0.5, "training", "Client SGD momentum (paper: 0.5)."
    )
    weight_decay: float = knob(
        "--weight-decay", 0.0, "training", "Client SGD weight decay."
    )
    rounds: int = knob("--rounds", 20, "training", "FL training rounds.", check=POSITIVE)
    eval_every: int = knob(
        "--eval-every", 1, "training",
        "Global-model evaluation cadence in rounds (the last round always evaluates).",
    )
    eval_batch_size: int = knob(
        "--eval-batch-size", 256, "training", "Batch size of global-model evaluation."
    )
    backend: str = knob(
        "--backend", "dense", "storage",
        "Pool-storage backend of the server's (K, P) model buffers: dense (in "
        "RAM), memmap (file-backed), sharded (row shards, see --shards) or "
        "distributed (row shards on socket-RPC host processes, see --hosts). "
        "All are bit-identical; registered backends are valid too.",
        registry="repro.core.storage:POOL_BACKENDS",
    )
    shards: int | None = knob(
        "--shards", None, "storage",
        "Row-shard count of the sharded backend (default: REPRO_POOL_SHARDS or 4).",
        type=int, check=POSITIVE,
    )
    shard_placement: str | None = knob(
        "--shard-placement", None, "storage",
        "Medium of each row shard of the sharded backend, or of each host of the "
        "distributed backend: dense (default) or memmap (shards on disk).",
        registry="repro.core.storage:POOL_BACKENDS",
    )
    hosts: int | None = knob(
        "--hosts", None, "storage",
        "Shard-host process count of the distributed backend "
        "(default: REPRO_POOL_HOSTS or 2).",
        type=int, check=POSITIVE,
    )
    execution: str = knob(
        "--execution", "serial", "execution",
        "Where the round's K training legs run: serial, thread, process or "
        "distributed (legs co-located with their upload shards). Histories are "
        "bit-identical on every backend.",
        registry="repro.fl.execution:EXECUTION_BACKENDS",
    )
    workers: int | None = knob(
        "--workers", None, "execution",
        "Worker count of the parallel execution backends (default: one per "
        "usable core; process workers share them). Serial ignores it.",
        type=int, check=POSITIVE,
    )
    round_mode: str = knob(
        "--round-mode", "sync", "schedule",
        "Round schedule: sync (each round blocks on its slowest leg) or async "
        "(round t+1 dispatches while round t stragglers finish, bounded by "
        "--max-staleness).",
        registry="repro.fl.scheduler:ROUND_SCHEDULERS",
    )
    max_staleness: int = knob(
        "--max-staleness", 0, "schedule",
        "Staleness bound S of the async schedule: at most S+1 rounds in flight, "
        "and no pool row is blended by a round older than the one that last "
        "wrote it. S=0 is bitwise the sync schedule.",
        check=NON_NEGATIVE,
    )
    faults: Any = knob(
        "--faults", None, "faults",
        "Client-fault scenario: a mapping or JSON object of FaultScenario knobs "
        '(e.g. {"availability": 0.9, "dropout": 0.1}; adversarial: '
        "byzantine_frac, attack, attack_scale) or a scenario file path. Decided "
        "server-side under --seed, identical on every backend (default: none).",
        check=(
            lambda v: isinstance(v, (str, Mapping)),
            "a scenario mapping, inline JSON or a scenario file path",
        ),
    )
    quorum: float = knob(
        "--quorum", 1.0, "faults",
        "Fraction of the cohort that must deliver fresh uploads for a round "
        "to count (default 1.0: every leg).",
        check=(lambda v: 0.0 < float(v) <= 1.0, "in (0, 1]"),
    )
    failure_policy: str = knob(
        "--failure-policy", "fail", "faults",
        "What a failed leg does: fail aborts the round (the reference), carry "
        "keeps its stale middleware row, redispatch reissues it once, then carries.",
        choices=("fail", "carry", "redispatch"),
    )
    leg_timeout: float | None = knob(
        "--leg-timeout", None, "faults",
        "Wall-clock seconds parallel backends wait for in-flight legs before "
        "declaring the rest timed out (default: none). Late work is discarded.",
        type=float, check=(lambda v: v > 0, "positive seconds"),
    )
    leg_retries: int = knob(
        "--leg-retries", 0, "faults",
        "Bounded retries of leg errors and timeouts; simulated faults are never retried.",
        check=(lambda v: int(v) >= 0, ">= 0"),
    )
    leg_backoff: float = knob(
        "--leg-backoff", 0.05, "faults",
        "Base backoff seconds; retry i sleeps leg_backoff * 2**(i-1).",
        check=(lambda v: float(v) >= 0, ">= 0 seconds"),
    )
    aggregator: str = knob(
        "--aggregator", "mean", "robust",
        "Aggregation operator of CrossAggr blends and GlobalModelGen: mean "
        "(bitwise the reference path), trimmed_mean, coordinate_median or norm_clip.",
        registry="repro.robust.operators:AGGREGATION_OPERATORS",
    )
    aggregator_params: dict[str, Any] = knob(
        "--aggregator-params", None, "robust",
        'Operator knobs as a JSON object, e.g. {"trim": 0.25} or '
        '{"clip_factor": 3.0}; unknown knobs are rejected.',
        type=_json_object, factory=dict,
        check=(lambda v: isinstance(v, Mapping), "a mapping of knobs"),
    )
    screen: str | None = knob(
        "--screen", None, "robust",
        "Gram-based anomaly screen of landed uploads: flag (record suspects) or "
        "carry (also quarantine flagged rows) (default: off).",
        choices=("flag", "carry"),
    )
    seed: int = knob("--seed", 0, "run", "Seed of data, init, sampling and faults.")
    dataset_params: dict[str, Any] = knob(
        None, None, "run", "Dataset-builder keyword options.", factory=dict
    )
    model_params: dict[str, Any] = knob(
        None, None, "run", "Model-builder keyword options.", factory=dict
    )
    method_params: dict[str, Any] = knob(
        None, None, "run",
        'Method options, e.g. {"mu": 0.01} (FedProx) or '
        '{"alpha": 0.99, "selection": "lowest"} (FedCross); see `repro list`.',
        factory=dict,
    )

    def __post_init__(self) -> None:
        check_knobs(self)
        for knobs, requirement, holds in RULES:
            if not holds(self):
                got = ", ".join(f"{k}={getattr(self, k)!r}" for k in knobs)
                raise ValueError(f"{requirement} (got {got})")

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


def _overlapped(c) -> bool:
    return c.round_mode == "async" and c.max_staleness > 0


def _method_has(c, capability: str) -> bool:
    """Whether ``c.method``'s server class has attribute ``capability``
    (``"policy"``: keeps the default ``run_round``, where the round policy
    acts)."""
    cls = load("repro.fl.registry:METHODS").resolve(c.method)
    if capability == "policy":
        return cls.run_round is load("repro.fl.server:FederatedServer").run_round
    return hasattr(cls, capability)


#: Cross-field rules ``(knobs, requirement, holds(config))``, checked at
#: construction after every knob's own check; the error names each knob.
#: This is the one table of refused knob products: no run path checks one.
RULES: tuple = (
    (("k_active", "num_clients"), "k_active must not exceed num_clients",
     lambda c: c.k_active is None or c.k_active <= c.num_clients),
    (("execution", "backend"), "execution='distributed' requires backend='distributed'",
     lambda c: c.execution != "distributed" or c.backend == "distributed"),
    # Process legs train in the server's rows, mapped from this node.
    (("execution", "backend"), "execution='process' requires a local backend, not 'distributed'",
     lambda c: c.execution != "process" or c.backend != "distributed"),
    (("shards", "backend"), "shards requires backend='sharded'",
     lambda c: c.shards is None or c.backend == "sharded"),
    (("hosts", "backend"), "hosts requires backend='distributed'",
     lambda c: c.hosts is None or c.backend == "distributed"),
    (("shard_placement", "backend"),
     "shard_placement requires backend='sharded' or 'distributed'",
     lambda c: c.shard_placement is None or c.backend in ("sharded", "distributed")),
    (("max_staleness", "round_mode"), "max_staleness > 0 requires round_mode='async'",
     lambda c: c.max_staleness == 0 or c.round_mode == "async"),
    # Shard-host failover (RoundFaults.lost) is fed by the sync engine only.
    (("round_mode", "max_staleness", "backend", "failure_policy"),
     "round_mode='async' with max_staleness > 0 on backend='distributed' "
     "supports only failure_policy='fail'",
     lambda c: not _overlapped(c) or c.backend != "distributed" or c.failure_policy == "fail"),
    (("round_mode", "max_staleness", "method"),
     "round_mode='async' with max_staleness > 0 requires a method with "
     "speculative cross-aggregation (an async_adapter)",
     lambda c: not _overlapped(c) or _method_has(c, "async_adapter")),
    (("round_mode", "max_staleness", "screen"),
     "round_mode='async' with max_staleness > 0 does not compose with screen: "
     "screening needs the round's uploads at once",
     lambda c: not _overlapped(c) or c.screen is None),
    (("round_mode", "max_staleness", "aggregator"),
     "round_mode='async' with max_staleness > 0 requires the linear 'mean' "
     "aggregator: robust operators need the round's uploads at once",
     lambda c: not _overlapped(c)
     or load("repro.robust.operators:AGGREGATION_OPERATORS").resolve(c.aggregator).linear),
    (("method", "faults", "failure_policy", "leg_retries", "leg_timeout"),
     "an engaged fault policy requires a method that keeps the default "
     "run_round: the policy acts inside its collect()",
     lambda c: not load("repro.faults.policy:RoundPolicy").from_config(c).engaged
     or _method_has(c, "policy")),
    (("screen", "method"), "screen requires a method with an upload screen",
     lambda c: c.screen is None or _method_has(c, "screen_uploads")),
)
