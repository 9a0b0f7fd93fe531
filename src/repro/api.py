"""High-level convenience API.

Three calls cover the common workflows:

``quick_fedcross``
    Run FedCross with paper-default hyper-parameters on a CPU-scaled
    synthetic CIFAR-10 — the five-second "does it work" entry point.
``run_method``
    Run any registered method from keyword arguments.
``compare_methods``
    Run several methods on the *same* federated dataset and initial
    weights (the paper's comparison-fairness protocol) and return
    results keyed by method name.

All three sit on the phased server protocol
(:class:`~repro.fl.server.FederatedServer`: ``select_cohort`` →
``dispatch`` → ``collect`` → ``aggregate``) and accept a ``callbacks=``
sequence of :class:`~repro.fl.callbacks.ServerCallback` hooks — e.g.
:class:`~repro.fl.callbacks.ThroughputLogger` for round timing or
:class:`~repro.fl.callbacks.BestStateCheckpointer` for best-state
checkpointing with early-stop patience::

    from repro.api import run_method
    from repro.fl.callbacks import BestStateCheckpointer

    ckpt = BestStateCheckpointer(patience=5)
    result = run_method("fedavg", rounds=50, callbacks=[ckpt])

Server-side model buffers live on a pluggable storage backend selected
by the ``backend`` config field (``"dense"`` in-memory default,
``"memmap"`` for pools beyond RAM — see :mod:`repro.core.storage`)::

    result = run_method("fedcross", num_clients=200, backend="memmap")

Client execution — *where* the round's K local-training legs run — is
equally pluggable via the ``execution`` / ``workers`` config fields
(``"serial"`` default, ``"thread"``, or ``"process"`` for a persistent
worker pool with shared-memory upload packing — see
:mod:`repro.fl.execution`)::

    result = run_method("fedcross", k_active=50, execution="process", workers=8)

Every execution backend reproduces the serial schedule **bit-for-bit**
(each client owns an independent RNG stream and a dedicated
upload-buffer row), so parallelism never changes the science — only
the wall-clock.  Nor does it change the communication columns: the
server bills each round from its leg counts, whatever the backend.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.data.federated import build_federated_dataset
from repro.fl.config import FLConfig
from repro.fl.simulation import SimulationResult, run_simulation

__all__ = ["quick_fedcross", "run_method", "compare_methods"]


def quick_fedcross(
    seed: int = 0,
    rounds: int = 10,
    num_clients: int = 10,
    heterogeneity: str | float = 0.5,
    callbacks: Sequence | None = None,
    **method_params,
) -> SimulationResult:
    """Small FedCross run on synthetic CIFAR-10 with an MLP."""
    config = FLConfig(
        method="fedcross",
        dataset="synth_cifar10",
        model="mlp",
        heterogeneity=heterogeneity,
        num_clients=num_clients,
        participation=0.5,
        rounds=rounds,
        seed=seed,
        method_params=method_params,
    )
    return run_simulation(config, callbacks=callbacks)


def run_method(
    method: str, callbacks: Sequence | None = None, **config_kwargs
) -> SimulationResult:
    """Run one method; kwargs are :class:`~repro.fl.config.FLConfig` fields."""
    return run_simulation(FLConfig(method=method, **config_kwargs), callbacks=callbacks)


def compare_methods(
    methods: list[str],
    base_config: FLConfig | None = None,
    method_params: dict[str, dict] | None = None,
    callbacks: "Sequence | Callable[[], Sequence] | None" = None,
    **config_kwargs,
) -> dict[str, SimulationResult]:
    """Run several methods under identical data/init/seed.

    Parameters
    ----------
    methods:
        Registered method names to compare.
    base_config:
        Shared configuration; built from ``config_kwargs`` when omitted.
    method_params:
        Optional per-method parameter dicts, e.g.
        ``{"fedprox": {"mu": 0.01}, "fedcross": {"alpha": 0.99}}``.
    callbacks:
        Either a shared callback sequence, or — since callbacks such as
        :class:`~repro.fl.callbacks.BestStateCheckpointer` are stateful
        — a zero-argument factory called once per method so every run
        gets fresh instances.

    Returns
    -------
    dict mapping method name to its :class:`SimulationResult`.
    """
    per_method = method_params or {}
    base_config = base_config or FLConfig(**config_kwargs, method=(methods or ["fedavg"])[0])
    # Every method's config is checked before the dataset is built.
    configs = {m: base_config.with_method(m, **per_method.get(m, {})) for m in methods}
    fed_dataset = build_federated_dataset(
        base_config.dataset,
        num_clients=base_config.num_clients,
        heterogeneity=base_config.heterogeneity,
        seed=base_config.seed,
        **base_config.dataset_params,
    )
    results: dict[str, SimulationResult] = {}
    for method, config in configs.items():
        cbs = callbacks() if callable(callbacks) else callbacks
        results[method] = run_simulation(config, fed_dataset=fed_dataset, callbacks=cbs)
    return results
