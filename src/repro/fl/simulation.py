"""End-to-end simulation assembly.

``run_simulation(config)`` is the one-call experiment API: it builds the
federated dataset, the (deterministically initialised) model, the client
population with independent RNG streams, and the method's server; runs
the configured number of rounds; and returns a :class:`SimulationResult`
with the full history. All experiment harnesses and examples go through
this function.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.data.federated import FederatedDataset, build_federated_dataset
from repro.fl.client import Client
from repro.fl.config import FLConfig
from repro.fl.metrics import TrainingHistory
from repro.fl.registry import build_server
from repro.fl.server import FederatedServer
from repro.fl.trainer import LocalTrainer
from repro.models.registry import build_model
from repro.utils.rng import spawn_rng

__all__ = ["FLSimulation", "SimulationResult", "run_simulation", "default_model_params"]


def default_model_params(config: FLConfig, fed_dataset: FederatedDataset) -> dict:
    """Infer model kwargs (input shape / classes / vocab) from the data."""
    params = dict(config.model_params)
    name = config.model.lower()
    if name in ("charlstm", "sentlstm"):
        params.setdefault("vocab_size", fed_dataset.meta.get("vocab_size", 64))
        if name == "sentlstm":
            params.setdefault("num_classes", fed_dataset.num_classes)
    elif name in ("mlp", "logreg"):
        shape = fed_dataset.clients[0].features.shape[1:]
        params.setdefault("input_dim", int(np.prod(shape)))
        params.setdefault("num_classes", fed_dataset.num_classes)
    else:  # vision models
        shape = fed_dataset.clients[0].features.shape[1:]
        params.setdefault("input_shape", tuple(int(s) for s in shape))
        params.setdefault("num_classes", fed_dataset.num_classes)
    return params


@dataclass
class SimulationResult:
    """Everything an experiment needs from one FL run."""

    config: FLConfig
    history: TrainingHistory
    final_state: dict
    extras: dict = field(default_factory=dict)

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy

    @property
    def best_accuracy(self) -> float:
        return self.history.best_accuracy


class FLSimulation:
    """Builder/runner pairing a config with its realised components.

    Splitting construction (``__init__``) from execution (``run``) lets
    callers share one federated dataset across methods — the fairness
    requirement of Section IV-A — via the ``fed_dataset`` argument.
    ``callbacks`` (:class:`~repro.fl.callbacks.ServerCallback`) are
    handed to the server and observe its phased ``fit`` loop.
    """

    def __init__(
        self,
        config: FLConfig,
        fed_dataset: FederatedDataset | None = None,
        callbacks: "Sequence | None" = None,
    ) -> None:
        self.config = config
        root_streams = spawn_rng(config.seed, 3)
        self._server_rng, self._client_root, _ = root_streams

        if fed_dataset is None:
            fed_dataset = build_federated_dataset(
                config.dataset,
                num_clients=config.num_clients,
                heterogeneity=config.heterogeneity,
                seed=config.seed,
                **config.dataset_params,
            )
        if fed_dataset.num_clients != config.num_clients:
            raise ValueError(
                f"dataset provides {fed_dataset.num_clients} clients but config "
                f"expects {config.num_clients}"
            )
        self.fed_dataset = fed_dataset

        model_params = default_model_params(config, fed_dataset)
        self.model = build_model(config.model, seed=config.seed, **model_params)
        # Picklable recipe for the template model: parallel execution
        # backends use it to give every worker its own model instance.
        self.model_factory = functools.partial(
            build_model, config.model, seed=config.seed, **model_params
        )
        self.trainer = LocalTrainer(
            self.model,
            local_epochs=config.local_epochs,
            batch_size=config.batch_size,
            lr=config.lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        client_rngs = spawn_rng(self._client_root, fed_dataset.num_clients)
        self.clients = [
            Client(i, shard, rng)
            for i, (shard, rng) in enumerate(zip(fed_dataset.clients, client_rngs))
        ]
        self.server: FederatedServer = build_server(
            config.method,
            config,
            fed_dataset,
            self.model,
            self.trainer,
            self.clients,
            self._server_rng,
            callbacks=callbacks,
            model_factory=self.model_factory,
        )

    def run(self) -> SimulationResult:
        """Run all configured rounds and package the result.

        Execution-backend resources (worker pools, shared-memory
        buffers) are released when the run finishes; they are re-created
        lazily if the server is fitted again.
        """
        try:
            history = self.server.fit()
        finally:
            self.server.executor.close()
        return SimulationResult(
            config=self.config,
            history=history,
            final_state=self.server.global_state(),
            extras=getattr(self.server, "result_extras", {}),
        )


def run_simulation(
    config: FLConfig,
    fed_dataset: FederatedDataset | None = None,
    callbacks: "Sequence | None" = None,
) -> SimulationResult:
    """Build and run an FL simulation in one call.

    ``callbacks`` are :class:`~repro.fl.callbacks.ServerCallback`
    instances observing the server's phased ``fit`` loop.
    """
    return FLSimulation(config, fed_dataset=fed_dataset, callbacks=callbacks).run()
