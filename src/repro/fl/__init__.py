"""Federated-learning simulation substrate.

Implements the cloud/client architecture of Section II: a
:class:`~repro.fl.server.FederatedServer` coordinates explicit round
phases (``select_cohort`` → ``dispatch`` → ``collect`` → ``aggregate``)
over :class:`~repro.fl.client.Client` objects holding private shards,
with per-round metric recording, communication accounting, and
:class:`~repro.fl.callbacks.ServerCallback` lifecycle hooks. Concrete
aggregation methods live in :mod:`repro.baselines` (FedAvg, FedProx,
SCAFFOLD, FedGen, CluSamp, FedCluster) and :mod:`repro.core`
(FedCross); all of them aggregate through
:class:`~repro.core.pool.PoolBuffer` row operations.
"""

from repro.fl.config import FLConfig
from repro.fl.client import Client
from repro.fl.trainer import LocalTrainer, LocalResult
from repro.fl.execution import (
    ExecutionBackend,
    available_executions,
    register_execution,
)
from repro.fl.hooks import (
    ControlVariateSpec,
    DistillationSpec,
    HookSpec,
    ProximalSpec,
)
from repro.fl.server import DispatchPlan, FederatedServer
from repro.fl.callbacks import BestStateCheckpointer, ServerCallback, ThroughputLogger
from repro.fl.metrics import evaluate_model, RoundRecord, TrainingHistory
from repro.fl.comm import CommunicationLedger
from repro.fl.registry import register_method, build_server, available_methods
from repro.fl.simulation import FLSimulation, SimulationResult, run_simulation

__all__ = [
    "FLConfig",
    "Client",
    "LocalTrainer",
    "LocalResult",
    "ExecutionBackend",
    "available_executions",
    "register_execution",
    "HookSpec",
    "ProximalSpec",
    "ControlVariateSpec",
    "DistillationSpec",
    "DispatchPlan",
    "FederatedServer",
    "ServerCallback",
    "ThroughputLogger",
    "BestStateCheckpointer",
    "evaluate_model",
    "RoundRecord",
    "TrainingHistory",
    "CommunicationLedger",
    "register_method",
    "build_server",
    "available_methods",
    "FLSimulation",
    "SimulationResult",
    "run_simulation",
]
