"""Failure structures, the round policy, and the per-round fault record.

:class:`RoundPolicy` carries a run's resilience knobs;
:class:`RoundFaults` — opened once per round by whichever driver runs
it (:func:`~repro.faults.engine.resilient_collect` for a sync round,
:class:`~repro.fl.scheduler.AsyncRoundScheduler` for an overlapped one)
— is the one place the policy *decides*: which legs are pre-dropped,
whether a failed leg is retried (and after what backoff), reissued or
final, what the round's leg traffic was, and — at close — whether the
round counts (``fail`` abort, quorum) and what its carried legs hold.
The drivers keep only their wait loops.

This module is deliberately dependency-light (stdlib + dataclasses
only): :mod:`repro.fl.execution` imports :class:`LegFailure` so its
captured streams can yield structured failures, and the config layer
builds a :class:`RoundPolicy` — neither may drag the whole faults
package (numpy, engine) into every import of the execution module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

__all__ = [
    "FaultError",
    "QuorumError",
    "LegFailure",
    "RoundPolicy",
    "RoundFaults",
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
    """The resilience knobs of one run, lifted off the config (whose knobs
    check them).

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

    @classmethod
    def from_config(cls, config: Any) -> "RoundPolicy":
        return cls(
            quorum=float(config.quorum),
            failure_policy=str(config.failure_policy),
            leg_timeout=config.leg_timeout,
            leg_retries=int(config.leg_retries),
            leg_backoff=float(config.leg_backoff),
            has_fault_model=bool(config.faults),
        )

    @property
    def engaged(self) -> bool:
        return (
            self.has_fault_model or self.failure_policy != "fail"
            or self.leg_retries > 0 or self.leg_timeout is not None
        )

    def open_round(self, population, round_idx: int, active, rows) -> "RoundFaults":
        """The fault record of one round (see :class:`RoundFaults`)."""
        return RoundFaults(self, population, round_idx, active, rows)

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


class RoundFaults:
    """One round's fault record: every policy decision, made once.

    Opening it makes the pre-dispatch decisions, by plan index: the
    seeded fault model's simulated ``failures`` (those legs are never
    submitted — zero communication, on every backend; any of them
    aborts the round under the ``fail`` policy) and the Byzantine
    ``attacks``.  Both are pure functions of (scenario, seed, round,
    client): a retried leg or a redispatched stand-in re-derives the
    same attack instead of inheriting the failed attempt's, and carried
    legs keep the dispatched state and are never attacked.

    The driver then reports leg events — :meth:`submitted`, a landing
    (``ups += 1``), :meth:`failed`, :meth:`lost` — and :meth:`close`
    settles the round.  ``downs`` / ``ups`` count leg traffic (one down
    per (re)submission, one up per fresh landing; simulated faults and
    carried legs move nothing): what ``charge_round_communication``
    bills, on every execution backend.
    """

    def __init__(self, policy: RoundPolicy, population, round_idx: int, active, rows) -> None:
        self.policy = policy
        self.round_idx = round_idx
        self.active = active
        self.rows = [int(row) for row in rows]
        self.failures: "dict[int, LegFailure]" = {}
        self.attacks: dict = {}
        self.tries = [0] * len(active)
        self.reissued: "set[int]" = set()
        self.downs = self.ups = 0
        self._snapshots: dict = {}  # client RNG state at (re)submission
        if population is None:
            return
        ids = [client.client_id for client in active]
        for i, fault in enumerate(population.leg_faults(round_idx, ids)):
            if fault.kind is not None:
                self.failures[i] = population.failure_for(fault, i, ids[i], self.rows[i])
        self._abort_under_fail()
        for i, client_id in enumerate(ids):
            spec = population.attack_for(round_idx, client_id)
            if spec is not None:
                self.attacks[i] = spec

    def _abort_under_fail(self) -> None:
        if self.failures and self.policy.failure_policy == "fail":
            raise FaultError(
                f"round {self.round_idx} aborted under failure_policy='fail': "
                f"{describe_failures(self.failures)}"
            )

    def submitted(self, i: int) -> None:
        """Leg ``i`` is about to be (re)submitted: count it, snapshot its RNG."""
        self.tries[i] += 1
        self.downs += 1
        self._snapshots[i] = self.active[i].rng.bit_generator.state

    def lost(self, i: int) -> None:
        """Leg ``i``'s landed upload died with its shard host: un-land it
        so the driver can retrain it as a recovery leg."""
        self.ups -= 1
        restore_rng(self.active[i], self._snapshots[i])

    def failed(self, i: int, failure: LegFailure) -> "float | None":
        """Leg ``i`` failed: the delay to resubmit it after, or ``None``
        when the failure is final.

        The client's RNG is rewound to its submission snapshot *first* —
        before the driver can release or resubmit the client — so no
        later leg trains from a half-advanced stream.  Infrastructure
        failures are retried while ``tries <= leg_retries`` (exponential
        backoff), then ``redispatch`` grants the leg one immediate
        reissue; simulated faults are never retried.
        """
        restore_rng(self.active[i], self._snapshots[i])
        if failure.retryable:
            if self.tries[i] <= self.policy.leg_retries:
                return self.policy.backoff_delay(self.tries[i])
            if self.policy.failure_policy == "redispatch" and i not in self.reissued:
                self.reissued.add(i)
                return 0.0
        self.failures[i] = replace(failure, index=i, attempts=self.tries[i])
        return None

    def close(self, server, uploads, dispatched, results) -> None:
        """Settle the round, filling ``results`` for the carried legs.

        Raises :class:`FaultError` under the ``fail`` policy and
        :class:`QuorumError` when fewer fresh uploads landed than
        ``quorum`` requires.  Otherwise every failed leg is carried:
        ``dispatched[i]``, its dispatch row, re-lands in the upload row
        (CrossAggr / GramTracker keep a consistent K-row view) as a
        ``num_samples=0`` result, which loss averaging and sample
        weighting ignore naturally, and ``on_upload`` fires for the row.
        Failures are reported here — final, and before the round's
        record closes: ``server.last_leg_failures`` in plan order, one
        ``on_leg_failure`` each.
        """
        from repro.fl.execution import UploadState  # lazy: import cycle
        from repro.fl.trainer import LocalResult

        self._abort_under_fail()
        n = len(self.active)
        survivors = n - len(self.failures)
        required = self.policy.required_legs(n)
        if survivors < required:
            raise QuorumError(
                f"round {self.round_idx}: {survivors}/{n} "
                f"fresh uploads, quorum {self.policy.quorum:g} requires {required} — "
                f"{describe_failures(self.failures)}"
            )
        order = sorted(self.failures)
        server.last_leg_failures = [self.failures[i] for i in order]
        for i in order:
            row = self.rows[i]
            uploads.set_row(row, dispatched[i])
            results[i] = LocalResult(UploadState(uploads, row), 0, 0, 0.0)
            server.on_upload(row, results[i])
        for failure in server.last_leg_failures:
            for cb in server.callbacks:
                cb.on_leg_failure(server, failure)
