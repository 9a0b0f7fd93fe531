"""Seeded client-fault model: who is up, who drops, who is slow.

A :class:`FaultScenario` declares a population's failure statistics; a
:class:`ClientPopulation` turns them into concrete per-round decisions.
Two properties make the model usable as a correctness fixture rather
than just noise:

**Deterministic under the run seed.**  Every decision is drawn from a
counter-keyed generator — ``default_rng([salt, seed, round_idx])`` for
the round's availability mask, ``default_rng([salt, seed, round_idx,
client_id])`` for a client's per-leg draws — so the fault pattern is a
pure function of ``(scenario, seed, round, client)``.  No generator
state is shared with the server's sampling RNG, and the per-leg draw
order is fixed (dropout first, then speed), so adding a knob later
cannot silently reshuffle existing scenarios.

**Backend-independent by construction.**  Simulated faults are decided
server-side *before* a leg is submitted to any execution backend: an
unavailable/dropped/straggling client's leg is never dispatched at all
(zero communication charged, on every backend), so the serial
reference and the distributed fleet see byte-identical fault patterns
and byte-identical surviving cohorts.

The cohort sampler keeps one important identity: when the scenario
leaves every client available (availability = 1.0), selection reduces
to the server's exact reference draw ``rng.choice(n, k,
replace=False)`` — a fault model with benign knobs does not move the
sampling stream.  Under churn, available clients are preferred and the
cohort is padded with unavailable ones when fewer than K are up —
fixed-cohort methods (FedCross needs exactly K legs for its K
middleware models) still dispatch, and the padded legs pre-fail as
``kind="unavailable"`` for the policy layer to carry or count.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.faults.policy import LegFailure
from repro.robust.attacks import ATTACK_KINDS, DEFAULT_ATTACK_SCALES, AttackSpec
from repro.utils.knobs import POSITIVE, check_knobs, knob, parse_knobs

__all__ = ["FaultScenario", "LegFault", "ClientPopulation"]

# Salts keying the fault streams away from every other seeded stream in
# the codebase (server RNG, client RNGs, data partitioning).  The
# Byzantine streams get their own salts so a crash-fault scenario's
# draws are untouched by adversarial knobs and vice versa.
_AVAILABILITY_SALT = 0x5EEDFA17
_LEG_SALT = 0x5EEDFA18
_BYZANTINE_SALT = 0x5EEDFA19
_ATTACK_SALT = 0x5EEDFA1A

_PROBABILITY = (lambda v: 0.0 <= float(v) <= 1.0, "in [0, 1]")


@dataclass(frozen=True)
class FaultScenario:
    """Declarative failure statistics of a client population (each
    field's knob help says what it decides)."""

    availability: float = knob(
        None, 1.0, "faults", "Probability a client is reachable this round (drawn per "
        "round per client); a drafted unavailable client's leg pre-fails.", check=_PROBABILITY,
    )
    dropout: float = knob(
        None, 0.0, "faults", "Probability an available client takes the leg but never "
        "uploads (mid-round churn).", check=_PROBABILITY,
    )
    slow_prob: float = knob(
        None, 0.0, "faults", "Probability a leg runs slow_factor x slower.", check=_PROBABILITY
    )
    slow_factor: float = knob(
        None, 1.0, "faults", "Speed multiplier of a slow leg.",
        check=(lambda v: v >= 1.0, ">= 1 (a speed multiplier)"),
    )
    straggler_timeout: float | None = knob(
        None, None, "faults", "Speed-multiplier cutoff: a leg drawn slower is a straggler, "
        "pre-dropped (a seeded, backend-independent deadline; None: no cutoff).",
        check=POSITIVE,
    )
    byzantine_frac: float = knob(
        None, 0.0, "faults", "Fraction of adversarial clients, drawn once per run "
        "(default_rng([salt, seed])), so the same clients attack on every backend.",
        check=_PROBABILITY,
    )
    attack: str = knob(
        None, "sign_flip", "faults", "Upload attack of Byzantine clients.", choices=ATTACK_KINDS
    )
    attack_scale: float | None = knob(
        None, None, "faults", "Attack magnitude; None: the per-kind default.", check=POSITIVE
    )

    __post_init__ = check_knobs  # every knob's own check, at construction

    @classmethod
    def from_spec(cls, spec: "FaultScenario | Mapping | str") -> "FaultScenario":
        """Build from a scenario, a mapping, a JSON string or a file path.

        This is the single entry point config/CLI plumbing goes
        through: ``FLConfig.faults`` may hold a dict, inline JSON or a
        path to a committed scenario file (``tests/faults/scenarios``).
        Unknown keys are rejected loudly — a typoed knob must not
        silently run the fault-free scenario.
        """
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            if os.path.exists(spec):
                with open(spec, encoding="utf-8") as fh:
                    spec = json.load(fh)
            else:
                try:
                    spec = json.loads(spec)
                except json.JSONDecodeError:
                    raise ValueError(
                        f"faults spec {spec!r} is neither an existing scenario "
                        "file nor inline JSON"
                    ) from None
        if not isinstance(spec, Mapping):
            raise TypeError(
                f"fault scenario must be a mapping, got {type(spec).__name__}"
            )
        return parse_knobs(cls, spec, "fault-scenario")

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def resolved_attack_scale(self) -> float:
        """``attack_scale`` with the per-kind default filled in."""
        if self.attack_scale is not None:
            return float(self.attack_scale)
        return float(DEFAULT_ATTACK_SCALES[self.attack])

    @property
    def benign(self) -> bool:
        """True when no knob can ever fail, slow or poison a leg.

        Straggling is judged against the *top drawable speed*: with
        ``slow_prob > 0`` that is ``slow_factor``, otherwise the 1.0
        baseline — which :meth:`ClientPopulation.leg_fault` still
        compares (strictly) against ``straggler_timeout``, so a
        scenario with ``slow_prob=0`` but ``straggler_timeout < 1.0``
        straggles every leg and must not report benign.  The boundary
        ``slow_factor == straggler_timeout`` is slowed-but-not-
        straggling (``leg_fault`` uses strict ``>``), matching the
        inclusive comparison here.
        """
        can_slow = self.slow_prob > 0.0 and self.slow_factor > 1.0
        top_speed = self.slow_factor if self.slow_prob > 0.0 else 1.0
        can_straggle = (
            self.straggler_timeout is not None
            and top_speed > self.straggler_timeout
        )
        return (
            self.availability >= 1.0
            and self.dropout <= 0.0
            and self.byzantine_frac <= 0.0
            and not can_slow
            and not can_straggle
        )


@dataclass(frozen=True)
class LegFault:
    """One leg's simulated-fault decision.

    ``kind`` is ``None`` (healthy), ``"unavailable"``, ``"dropout"``
    or ``"straggler"``; ``speed`` is the drawn device-speed multiplier
    (1.0 = baseline), kept even for failed legs so schedulers and
    benches can model the latency a straggler *would* have cost.
    """

    kind: str | None
    speed: float = 1.0


class ClientPopulation:
    """Per-round fault decisions for a population of ``num_clients``.

    The population wraps the server's cohort sampling and pre-decides
    every leg's simulated fate; the engine consumes those decisions
    before submitting anything to the execution backend.
    """

    def __init__(
        self,
        scenario: "FaultScenario | Mapping | str",
        seed: int,
        num_clients: int,
    ) -> None:
        self.scenario = FaultScenario.from_spec(scenario)
        self.seed = int(seed)
        self.num_clients = int(num_clients)
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        self._avail_cache: tuple[int, np.ndarray] | None = None
        self._byzantine_cache: np.ndarray | None = None

    # -- per-round decisions -----------------------------------------------
    def availability_mask(self, round_idx: int) -> np.ndarray:
        """Boolean reachability mask over the population this round."""
        cached = self._avail_cache
        if cached is not None and cached[0] == round_idx:
            return cached[1]
        rng = np.random.default_rng(
            [_AVAILABILITY_SALT, self.seed, int(round_idx)]
        )
        # random() < 1.0 is identically True (draws live in [0, 1)), so
        # availability=1.0 scenarios never mark anyone down.
        mask = rng.random(self.num_clients) < self.scenario.availability
        self._avail_cache = (int(round_idx), mask)
        return mask

    def leg_fault(self, round_idx: int, client_id: int) -> LegFault:
        """This client's simulated fate for its leg of ``round_idx``.

        Draw order is part of the contract: dropout first, then the
        speed multiplier — always both, even when the first already
        failed the leg, so the straggler stream of a scenario is
        unchanged by its dropout knob.  Kind precedence: unavailable >
        dropout > straggler.
        """
        scenario = self.scenario
        if not self.availability_mask(round_idx)[int(client_id)]:
            return LegFault(kind="unavailable")
        rng = np.random.default_rng(
            [_LEG_SALT, self.seed, int(round_idx), int(client_id)]
        )
        dropped = rng.random() < scenario.dropout
        slow = rng.random() < scenario.slow_prob
        speed = float(scenario.slow_factor) if slow else 1.0
        if dropped:
            return LegFault(kind="dropout", speed=speed)
        if (
            scenario.straggler_timeout is not None
            and speed > scenario.straggler_timeout
        ):
            return LegFault(kind="straggler", speed=speed)
        return LegFault(kind=None, speed=speed)

    def leg_faults(
        self, round_idx: int, client_ids: Sequence[int]
    ) -> list[LegFault]:
        return [self.leg_fault(round_idx, cid) for cid in client_ids]

    # -- adversarial decisions ----------------------------------------------
    def byzantine_mask(self) -> np.ndarray:
        """Static boolean mask of adversarial clients (one draw per run).

        Membership is round-independent by design: a Byzantine client
        attacks every leg it lands, which is both the standard threat
        model and what makes the attacked/clean accuracy comparison in
        the robustness gates stable.
        """
        if self._byzantine_cache is None:
            rng = np.random.default_rng([_BYZANTINE_SALT, self.seed])
            draws = rng.random(self.num_clients)
            self._byzantine_cache = draws < self.scenario.byzantine_frac
        return self._byzantine_cache

    def attack_for(self, round_idx: int, client_id: int) -> AttackSpec | None:
        """This client's attack for its leg of ``round_idx`` (or None).

        A pure function of ``(scenario, seed, round, client)``: a
        retried leg or a redispatched stand-in re-derives exactly the
        same decision from the seeded stream rather than inheriting
        state from the failed attempt.  The per-leg ``seed_key`` feeds
        attack-internal randomness (``gauss_noise``) so even noise is
        bit-identical across backends.
        """
        if self.scenario.byzantine_frac <= 0.0:
            return None
        if not self.byzantine_mask()[int(client_id)]:
            return None
        return AttackSpec(
            kind=self.scenario.attack,
            scale=self.scenario.resolved_attack_scale,
            seed_key=(_ATTACK_SALT, self.seed, int(round_idx), int(client_id)),
        )

    def failure_for(
        self, fault: LegFault, index: int, client_id: int, row: int
    ) -> LegFailure:
        """Structured :class:`LegFailure` for a pre-decided fault."""
        if fault.kind == "unavailable":
            message = "client unreachable this round (availability churn)"
        elif fault.kind == "dropout":
            message = "client accepted the leg but never uploaded"
        elif fault.kind == "straggler":
            message = (
                f"simulated speed {fault.speed:g}x exceeds the scenario's "
                f"straggler cutoff {self.scenario.straggler_timeout:g}x"
            )
        else:
            message = str(fault.kind)
        return LegFailure(
            index=int(index),
            client_id=int(client_id),
            row=int(row),
            kind=str(fault.kind),
            message=message,
            attempts=0,
        )

    # -- cohort sampling ----------------------------------------------------
    def select_cohort(self, clients, k: int, round_idx: int, rng) -> list:
        """Availability-aware cohort draw.

        All-available rounds reduce to the server's exact reference
        draw (same generator, same single call), so a benign scenario
        is bit-identical to no scenario.  Under churn, K clients are
        drawn from the available pool first; when fewer than K are up,
        the cohort is padded with unavailable clients so fixed-cohort
        methods still dispatch — the padded legs pre-fail as
        ``kind="unavailable"`` and never run.
        """
        n = len(clients)
        if n != self.num_clients:
            raise ValueError(
                f"population was sized for {self.num_clients} clients, "
                f"got a roster of {n}"
            )
        available = np.flatnonzero(self.availability_mask(round_idx))
        if available.size == n:
            idx = rng.choice(n, size=k, replace=False)
            return [clients[i] for i in idx]
        chosen: list = []
        if available.size:
            take = min(k, int(available.size))
            picks = rng.choice(available.size, size=take, replace=False)
            chosen = [clients[int(available[i])] for i in picks]
        if len(chosen) < k:
            down = np.setdiff1d(np.arange(n), available, assume_unique=True)
            pad = rng.choice(down.size, size=k - len(chosen), replace=False)
            chosen.extend(clients[int(down[i])] for i in pad)
        return chosen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClientPopulation(seed={self.seed}, n={self.num_clients}, "
            f"scenario={self.scenario.to_dict()})"
        )
