"""Table III — α × collaborative-selection-strategy ablation.

The paper evaluates FedCross on CIFAR-10 (β = 1.0, CNN) with
α ∈ {0.5, 0.8, 0.9, 0.95, 0.99, 0.999} under the three selection
strategies and finds: lowest-similarity best in five of six α rows,
highest-similarity always worst, and a collapse at α = 0.999.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.selection import CoModelSel
from repro.data.federated import build_federated_dataset
from repro.experiments.printers import format_table
from repro.experiments.scale import ExperimentScale, resolve_scale
from repro.fl.config import FLConfig
from repro.fl.simulation import run_simulation

__all__ = ["Table3Result", "run_table3", "format_table3"]

PAPER_ALPHAS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


@dataclass
class Table3Result:
    alphas: tuple[float, ...]
    strategies: tuple[str, ...]
    accuracy: dict[tuple[float, str], float]

    def best_strategy_per_alpha(self) -> dict[float, str]:
        out = {}
        for alpha in self.alphas:
            out[alpha] = max(self.strategies, key=lambda s: self.accuracy[(alpha, s)])
        return out

    def strategy_mean(self, strategy: str) -> float:
        vals = [self.accuracy[(a, strategy)] for a in self.alphas]
        return sum(vals) / len(vals)


def run_table3(
    scale: str | ExperimentScale | None = None,
    seed: int = 0,
    alphas: tuple[float, ...] = (0.5, 0.9, 0.99, 0.999),
    strategies: tuple[str, ...] = CoModelSel.STRATEGIES,
    model: str = "mlp",
) -> Table3Result:
    """Sweep α × strategy for FedCross on synth CIFAR-10, β = 1.0.

    Default α set is the paper's endpoints plus the recommended 0.99;
    pass ``alphas=PAPER_ALPHAS`` for the full six-row table.
    """
    preset = resolve_scale(scale)
    base = FLConfig(
        method="fedcross",
        dataset="synth_cifar10",
        model=model,
        heterogeneity=1.0,
        num_clients=preset.num_clients,
        participation=preset.participation,
        rounds=preset.rounds_long,
        local_epochs=preset.local_epochs,
        batch_size=preset.batch_size,
        eval_every=preset.eval_every,
        seed=seed,
    )
    fed_dataset = build_federated_dataset(
        base.dataset,
        num_clients=base.num_clients,
        heterogeneity=base.heterogeneity,
        seed=base.seed,
    )
    accuracy: dict[tuple[float, str], float] = {}
    for alpha in alphas:
        for strategy in strategies:
            config = base.with_method("fedcross", alpha=alpha, selection=strategy)
            result = run_simulation(config, fed_dataset=fed_dataset)
            accuracy[(alpha, strategy)] = result.history.tail_accuracy(2)
    return Table3Result(alphas=tuple(alphas), strategies=tuple(strategies), accuracy=accuracy)


def format_table3(result: Table3Result) -> str:
    headers = ["alpha"] + [s for s in result.strategies]
    body = []
    for alpha in result.alphas:
        body.append(
            [str(alpha)] + [100.0 * result.accuracy[(alpha, s)] for s in result.strategies]
        )
    return format_table(
        headers, body, title="Table III (scaled): FedCross accuracy (%) by alpha x strategy"
    )
