"""Communication accounting.

The paper's Table I ranks methods by per-round communication overhead:
FedAvg / FedProx / CluSamp / FedCross move ``2K`` model copies per
round (K down, K up); SCAFFOLD doubles this with control variates; and
FedGen additionally dispatches a generator to every client. The ledger
counts parameters moved so benches can regenerate that table, and
:func:`analytic_round_cost` gives the closed-form cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CommunicationLedger", "analytic_round_cost", "COMM_OVERHEAD_CLASS"]

# The qualitative classes the paper's Table I assigns.
COMM_OVERHEAD_CLASS = {
    "fedavg": "Low",
    "fedprox": "Low",
    "scaffold": "High",
    "fedgen": "Medium",
    "clusamp": "Low",
    "fedcross": "Low",
}


@dataclass
class CommunicationLedger:
    """Per-round upload/download parameter counters.

    Written by one site only, the server's
    :meth:`~repro.fl.server.FederatedServer.charge_round_communication`,
    which bills the round's counted legs on every execution backend.
    """

    up_params: int = 0
    down_params: int = 0
    history: list = field(default_factory=list)

    def record_down(self, num_params: int) -> None:
        """Server → client transfer of ``num_params`` scalars."""
        self.down_params += int(num_params)

    def record_up(self, num_params: int) -> None:
        """Client → server transfer of ``num_params`` scalars."""
        self.up_params += int(num_params)

    def end_round(self) -> tuple[int, int]:
        """Close the round; returns ``(up, down)`` and resets counters."""
        snapshot = (self.up_params, self.down_params)
        self.history.append(snapshot)
        self.up_params = 0
        self.down_params = 0
        return snapshot

    def total(self) -> int:
        finished = sum(u + d for u, d in self.history)
        return finished + self.up_params + self.down_params


def analytic_round_cost(
    method: str, k_clients: int, model_params: int, generator_params: int = 0
) -> dict[str, float]:
    """Closed-form per-round communication of Section IV-C3.

    Returns a dict with ``down``, ``up`` and ``total`` in scalar counts,
    plus ``model_equivalents`` (total / model size) — the unit the paper
    uses ("2K models", "2K models + 2K control variables", ...).
    """
    method = method.lower()
    if method in ("fedavg", "fedprox", "clusamp", "fedcross"):
        down = k_clients * model_params
        up = k_clients * model_params
    elif method == "scaffold":
        # Model + same-sized control variate in each direction.
        down = 2 * k_clients * model_params
        up = 2 * k_clients * model_params
    elif method == "fedgen":
        down = k_clients * (model_params + generator_params)
        up = k_clients * model_params
    else:
        raise KeyError(f"unknown method {method!r}")
    total = down + up
    return {
        "down": float(down),
        "up": float(up),
        "total": float(total),
        "model_equivalents": total / model_params if model_params else 0.0,
    }
