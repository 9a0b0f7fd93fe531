"""Server lifecycle callbacks.

:meth:`repro.fl.server.FederatedServer.fit` drives the phased round
loop (``select_cohort → dispatch → collect → aggregate``) and invokes
registered :class:`ServerCallback` hooks at fixed points:

``on_round_start(server, round_idx)``
    Before the cohort is sampled.
``on_evaluate(server, record)``
    After the periodic global-model evaluation, with
    ``record.accuracy``/``record.loss`` filled in.
``on_round_end(server, record)``
    After the round's :class:`~repro.fl.metrics.RoundRecord` is
    appended to the history.
``on_fit_end(server, history)``
    Once, when the ``fit`` call returns (including early stops).

A callback may set ``server.stop_training = True`` (typically from
``on_evaluate``) to end training after the current round — the
mechanism behind :class:`BestStateCheckpointer`'s early-stop patience.

Rounds may overlap.  Under ``round_mode="async"``, and on sync runs
whose legs train off the coordinator (``--execution process`` or
``distributed``), round t+1 starts before round t is evaluated:
``on_round_start(server, t + 1)`` precedes ``on_evaluate`` /
``on_round_end`` of round t, and server state a callback reads in them
may already be round t+1's (its cohort drawn, its legs in flight).
Callbacks should therefore read the round from ``record.round_idx``,
not ``server.round_idx``.  The deployable model (``global_state()``)
is still round t's.  A stop requested while closing round t discards
round t+1 (its legs drained, its draws rewound): the run ends exactly
as the in-line schedule would.

Two concrete callbacks ship with the framework:

* :class:`ThroughputLogger` — wall-clock per round plus a throughput
  summary (rounds/s, client updates/s);
* :class:`BestStateCheckpointer` — keeps a deep copy of the best
  evaluated global state, optionally stops after ``patience``
  non-improving evaluations, and restores the best state at fit end.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.metrics import RoundRecord, TrainingHistory
    from repro.fl.server import FederatedServer

__all__ = ["ServerCallback", "ThroughputLogger", "BestStateCheckpointer"]


class ServerCallback:
    """Base class for server lifecycle hooks; every hook is a no-op."""

    def on_round_start(self, server: "FederatedServer", round_idx: int) -> None:
        """Called before each round's cohort is sampled."""

    def on_evaluate(self, server: "FederatedServer", record: "RoundRecord") -> None:
        """Called after each periodic evaluation (accuracy/loss set)."""

    def on_round_end(self, server: "FederatedServer", record: "RoundRecord") -> None:
        """Called after each round's record is appended to the history."""

    def on_leg_failure(self, server: "FederatedServer", failure) -> None:
        """Called once per leg the resilience engine finally gave up on.

        ``failure`` is a :class:`repro.faults.policy.LegFailure`; the
        hook fires after the collect phase carried (or re-issued and
        then carried) the leg, before aggregation.  Only engaged fault
        policies ever invoke it.
        """

    def on_suspect_upload(self, server: "FederatedServer", record) -> None:
        """Called once per upload the anomaly screen flagged.

        ``record`` is a :class:`repro.robust.screen.SuspectRecord`; the
        hook fires during the aggregate phase, after every upload
        landed and before collaborator selection — under
        ``screen="carry"`` the flagged row has already been quarantined
        (its dispatched middleware state restored) when the hook runs.
        Only runs with ``FLConfig.screen`` set ever invoke it.
        """

    def on_fit_end(self, server: "FederatedServer", history: "TrainingHistory") -> None:
        """Called once when ``fit`` finishes (normally or early-stopped)."""


class ThroughputLogger(ServerCallback):
    """Round wall-clock timer with a throughput summary.

    Rounds may overlap (async, and pipelined sync rounds start round
    t+1 before round t ends), so a round's start is kept under its
    index and the summary's rates divide by the wall-clock the fits
    spanned, first round start to last round end, not by the sum of
    the (overlapping) per-round times.

    Parameters
    ----------
    log:
        Sink for human-readable lines (default :func:`print`); pass
        e.g. ``logging.getLogger("repro").info`` or a no-op to silence.
    every:
        Emit a per-round line every ``every`` rounds (0 = summary only).
    """

    def __init__(self, log: Callable[[str], None] = print, every: int = 1) -> None:
        self.log = log
        self.every = int(every)
        self.round_times: list[float] = []
        self.clients_trained = 0
        self._starts: dict[int, float] = {}
        self._span_start: float | None = None  # first round start of this fit
        self._span_end: float | None = None  # last round end of this fit
        self._spanned = 0.0  # wall-clock of earlier fits

    def on_round_start(self, server, round_idx) -> None:
        now = time.perf_counter()
        self._starts[round_idx] = now
        if self._span_start is None:
            self._span_start = now

    def on_round_end(self, server, record) -> None:
        start = self._starts.pop(record.round_idx, None)
        if start is None:
            return
        self._span_end = time.perf_counter()
        elapsed = self._span_end - start
        self.round_times.append(elapsed)
        # Methods whose schedule trains a different number of clients
        # than the cohort size (FedCluster) report it in the extras.
        self.clients_trained += record.extras.get(
            "clients_trained", server.config.clients_per_round
        )
        if self.every and len(self.round_times) % self.every == 0:
            acc = f" acc={record.accuracy:.4f}" if record.accuracy is not None else ""
            self.log(f"round {record.round_idx + 1}: {elapsed:.3f}s{acc}")

    def on_fit_end(self, server, history) -> None:
        # A round started but discarded by an early stop never ends.
        self._starts.clear()
        if self._span_start is not None and self._span_end is not None:
            self._spanned += self._span_end - self._span_start
        self._span_start = self._span_end = None
        if not self.round_times:
            return
        summary = self.summary()
        self.log(
            f"{len(self.round_times)} rounds in {summary['total_s']:.2f}s "
            f"({summary['rounds_per_s']:.2f} rounds/s, "
            f"{summary['client_updates_per_s']:.1f} client updates/s)"
        )

    def summary(self) -> dict:
        """Machine-readable aggregate of the timed rounds: ``total_s`` is
        the wall-clock they spanned, ``mean_round_s`` a round's mean
        start-to-end time."""
        total = self._spanned
        if self._span_start is not None and self._span_end is not None:
            total += self._span_end - self._span_start
        n = len(self.round_times)
        return {
            "rounds": n,
            "total_s": total,
            "mean_round_s": sum(self.round_times) / n if n else float("nan"),
            "rounds_per_s": n / total if total > 0 else float("inf"),
            "client_updates_per_s": self.clients_trained / total if total > 0 else float("inf"),
        }


class BestStateCheckpointer(ServerCallback):
    """Track the best evaluated global state; optionally early-stop.

    Parameters
    ----------
    patience:
        Stop training after this many consecutive non-improving
        evaluations (``None`` disables early stopping).
    min_delta:
        Minimum accuracy gain that counts as an improvement.
    restore:
        Reinstall the best state on the server (via
        :meth:`~repro.fl.server.FederatedServer.set_global_state`)
        when ``fit`` ends.
    """

    def __init__(
        self,
        patience: int | None = None,
        min_delta: float = 0.0,
        restore: bool = True,
    ) -> None:
        if patience is not None and patience < 1:
            raise ValueError("patience must be >= 1 (or None)")
        self.patience = patience
        self.min_delta = float(min_delta)
        self.restore = restore
        self.best_accuracy: float | None = None
        self.best_round: int | None = None
        self.best_state: dict | None = None
        self.stopped_early = False
        self._bad_evals = 0

    def on_evaluate(self, server, record) -> None:
        accuracy = record.accuracy
        if accuracy is None:
            return
        if self.best_accuracy is None or accuracy > self.best_accuracy + self.min_delta:
            self.best_accuracy = accuracy
            self.best_round = record.round_idx
            self.best_state = {
                key: np.array(value, copy=True)
                for key, value in server.global_state().items()
            }
            self._bad_evals = 0
        else:
            self._bad_evals += 1
            if self.patience is not None and self._bad_evals >= self.patience:
                self.stopped_early = True
                server.stop_training = True

    def on_fit_end(self, server, history) -> None:
        if self.restore and self.best_state is not None:
            server.set_global_state(self.best_state)
