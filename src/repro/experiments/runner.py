"""Shared experiment runner utilities."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import compare_methods
from repro.fl.config import FLConfig
from repro.fl.simulation import SimulationResult

__all__ = ["ALL_METHODS", "MethodComparison", "run_comparison"]

# The six methods of the paper's evaluation, in its column order.
ALL_METHODS = ["fedavg", "fedprox", "scaffold", "fedgen", "clusamp", "fedcross"]


@dataclass
class MethodComparison:
    """Results of running several methods under one shared config."""

    config: FLConfig
    results: dict[str, SimulationResult] = field(default_factory=dict)

    def final_accuracies(self) -> dict[str, float]:
        return {m: r.final_accuracy for m, r in self.results.items()}

    def best_accuracies(self) -> dict[str, float]:
        return {m: r.best_accuracy for m, r in self.results.items()}

    def curves(self) -> dict[str, list[float]]:
        return {m: r.history.accuracies for m, r in self.results.items()}

    def eval_rounds(self) -> list[int]:
        first = next(iter(self.results.values()))
        return first.history.rounds


def run_comparison(
    config: FLConfig,
    methods: list[str] | None = None,
    method_params: dict[str, dict] | None = None,
) -> MethodComparison:
    """Run ``methods`` under identical data/init and collect results; an
    option ``method_params`` leaves unset runs the method's own default."""
    methods = methods or ALL_METHODS
    results = compare_methods(methods, base_config=config, method_params=method_params)
    return MethodComparison(config=config, results=results)
