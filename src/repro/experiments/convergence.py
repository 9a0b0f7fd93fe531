"""Convergence-rate probe (Section III-C, Theorem 1) — extension bench.

Theorem 1 applies to mu-convex local objectives with the decaying step
size eta_t = 2/(mu (t+lambda)). We realise exactly that setting:
logistic regression (convex) on synthetic data, FedCross with in-order
selection (the strategy the proof assumes), and an inverse-time LR
decay set per round by an ``on_round_start`` callback. The bench then
fits the measured global-loss gap against a C/(t+lambda) envelope and
reports the log-log slope (Theorem 1 predicts about -1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.convergence import empirical_convergence_rate, inverse_t_envelope_fit
from repro.data.federated import build_federated_dataset
from repro.experiments.scale import ExperimentScale, resolve_scale
from repro.fl.callbacks import ServerCallback
from repro.fl.config import FLConfig
from repro.fl.simulation import FLSimulation

__all__ = ["ConvergenceResult", "run_convergence_probe"]


@dataclass
class ConvergenceResult:
    losses: list[float]
    fit: dict[str, float]
    loglog_slope: float
    f_star_estimate: float


def run_convergence_probe(
    scale: str | ExperimentScale | None = None,
    seed: int = 0,
    rounds: int | None = None,
) -> ConvergenceResult:
    """FedCross on a convex objective with decaying LR; fit the O(1/t) law."""
    preset = resolve_scale(scale)
    rounds = rounds or preset.rounds_long
    config = FLConfig(
        method="fedcross",
        dataset="synth_cifar10",
        model="logreg",
        heterogeneity=0.5,
        num_clients=preset.num_clients,
        participation=1.0,  # the proof assumes full participation
        rounds=rounds,
        local_epochs=2,
        batch_size=preset.batch_size,
        lr=0.05,
        momentum=0.0,  # plain SGD, as in the analysis
        eval_every=1,
        seed=seed,
        method_params={"alpha": 0.9, "selection": "in_order"},
    )
    sim = FLSimulation(config)

    # Decay the client LR as 1/(round + lambda), Theorem 1's schedule,
    # set at each round's start.
    lam = 10.0
    base_lr = config.lr

    class InverseTimeDecay(ServerCallback):
        def on_round_start(self, server, round_idx: int) -> None:
            server.trainer.lr = base_lr * lam / (round_idx + lam)

    history = sim.server.fit(callbacks=[InverseTimeDecay()])
    losses = [record.loss for record in history.records]

    # Estimate F* as slightly below the best observed loss.
    f_star = min(losses) * 0.98
    tail = losses
    fit = inverse_t_envelope_fit(tail, f_star=f_star)
    slope = empirical_convergence_rate(tail, f_star=f_star)
    return ConvergenceResult(
        losses=losses, fit=fit, loglog_slope=slope, f_star_estimate=f_star
    )
