"""Failure structures and the round policy the engine enforces.

This module is deliberately dependency-light (stdlib + dataclasses
only): :mod:`repro.fl.execution` imports :class:`LegFailure` so its
captured streams can yield structured failures, and the config layer
builds a :class:`RoundPolicy` — neither may drag the whole faults
package (numpy, engine) into every import of the execution module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

__all__ = [
    "FaultError",
    "QuorumError",
    "LegFailure",
    "RoundPolicy",
    "FAILURE_POLICIES",
    "restore_rng",
    "describe_failures",
]

#: ``fail``: any leg failure aborts the round — today's behavior and the
#: bit-identical reference.  ``carry``: failed legs keep their stale
#: middleware row (CrossAggr/GramTracker stay consistent).
#: ``redispatch``: like carry, but infra failures get one extra reissue
#: to a healthy worker/host before being carried.
FAILURE_POLICIES = ("fail", "carry", "redispatch")

#: Leg-failure kinds, in the order of the fault pipeline: the three
#: simulated kinds are decided before dispatch; ``timeout`` and
#: ``error`` are observed at the execution backend.
FAILURE_KINDS = ("unavailable", "dropout", "straggler", "timeout", "error")


class FaultError(RuntimeError):
    """A round could not complete under the configured failure policy."""


class QuorumError(FaultError):
    """Fewer legs survived than ``FLConfig.quorum`` requires."""


@dataclass
class LegFailure:
    """One leg that did not deliver a fresh upload.

    ``kind`` names *why* (see :data:`FAILURE_KINDS`); ``attempts``
    counts the training attempts actually spent on the leg (0 for
    simulated faults — those are never dispatched); ``drained`` flags a
    wall-clock timeout whose in-flight work was awaited and discarded
    before control returned (the no-zombie-writes guarantee).
    """

    index: int
    client_id: int
    row: int
    kind: str
    message: str = ""
    attempts: int = 0
    drained: bool = False

    @property
    def simulated(self) -> bool:
        """Decided by the fault model before dispatch (never ran)."""
        return self.kind in ("unavailable", "dropout", "straggler")

    @property
    def retryable(self) -> bool:
        """Infrastructure failures may be retried; simulated ones are
        facts about the scenario and must not be."""
        return self.kind in ("timeout", "error")

    def replace(self, **changes) -> "LegFailure":
        return replace(self, **changes)

    def summary(self) -> dict:
        """Round-record extras entry (JSON-friendly scalars only)."""
        return {
            "client": int(self.client_id),
            "row": int(self.row),
            "kind": self.kind,
            "attempts": int(self.attempts),
        }


def restore_rng(client, snapshot) -> None:
    """Rewind ``client``'s RNG stream to ``snapshot``, so a retried leg
    looks like one that trained once and a carried leg like one that
    never trained."""
    client.rng.bit_generator.state = snapshot


def describe_failures(failures: "dict[int, LegFailure]") -> str:
    """One-line summary of a round's failures, in plan order."""
    return "; ".join(
        f"client {f.client_id} (row {f.row}): {f.kind}"
        + (f" after {f.attempts} attempt(s)" if f.attempts else "")
        for _, f in sorted(failures.items())
    )


@dataclass(frozen=True)
class RoundPolicy:
    """The resilience knobs of one run, lifted off the config.

    ``engaged`` is the master switch: when nothing can fail
    (no scenario, ``fail`` policy, no retries, no timeout) the server
    bypasses the engine entirely and collect is byte-for-byte the
    reference path.
    """

    quorum: float = 1.0
    failure_policy: str = "fail"
    leg_timeout: float | None = None
    leg_retries: int = 0
    leg_backoff: float = 0.05
    has_fault_model: bool = False
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.quorum <= 1.0:
            raise ValueError(f"quorum must be in (0, 1], got {self.quorum}")
        if self.failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {self.failure_policy!r}"
            )
        if self.leg_timeout is not None and self.leg_timeout <= 0:
            raise ValueError("leg_timeout must be None or positive seconds")
        if self.leg_retries < 0:
            raise ValueError("leg_retries must be >= 0")
        if self.leg_backoff < 0:
            raise ValueError("leg_backoff must be >= 0 seconds")

    @classmethod
    def from_config(cls, config: Any) -> "RoundPolicy":
        return cls(
            quorum=float(getattr(config, "quorum", 1.0)),
            failure_policy=str(getattr(config, "failure_policy", "fail")),
            leg_timeout=getattr(config, "leg_timeout", None),
            leg_retries=int(getattr(config, "leg_retries", 0)),
            leg_backoff=float(getattr(config, "leg_backoff", 0.05)),
            has_fault_model=bool(getattr(config, "faults", None)),
        )

    @property
    def engaged(self) -> bool:
        return (
            self.has_fault_model
            or self.failure_policy != "fail"
            or self.leg_retries > 0
            or self.leg_timeout is not None
        )

    def pre_decide(self, population, round_idx: int, active, rows) -> "tuple[dict, dict]":
        """One round's decisions made before any leg is dispatched.

        Returns ``(failures, attacks)`` by plan index: the seeded fault
        model's simulated failures (those legs are never submitted —
        zero communication, on every backend; any of them aborts the
        round under the ``fail`` policy) and the Byzantine attack specs.
        Both are pure functions of (scenario, seed, round, client): a
        retried leg or a redispatched stand-in re-derives the same
        attack instead of inheriting the failed attempt's, and carried
        legs keep the dispatched state and are never attacked.
        """
        failures: dict[int, LegFailure] = {}
        attacks: dict = {}
        if population is None:
            return failures, attacks
        ids = [client.client_id for client in active]
        for i, fault in enumerate(population.leg_faults(round_idx, ids)):
            if fault.kind is not None:
                failures[i] = population.failure_for(fault, i, ids[i], int(rows[i]))
        if failures and self.failure_policy == "fail":
            raise FaultError(
                f"round {round_idx} aborted under failure_policy='fail': "
                f"{describe_failures(failures)}"
            )
        for i, client_id in enumerate(ids):
            spec = population.attack_for(round_idx, client_id)
            if spec is not None:
                attacks[i] = spec
        return failures, attacks

    def required_legs(self, cohort_size: int) -> int:
        """Fresh uploads needed for the round to count (quorum·K, up)."""
        # The epsilon keeps exact fractions exact: quorum=0.5 of 4 legs
        # must require 2, not ceil(2.0000000001).
        return min(
            int(cohort_size), math.ceil(self.quorum * cohort_size - 1e-9)
        )

    def backoff_delay(self, attempt: int) -> float:
        """Exponential backoff before retry ``attempt`` (1-based)."""
        return self.leg_backoff * (2.0 ** max(0, attempt - 1))
