"""Fault-tolerant round runtime.

FedCross's round protocol assumes every one of the K legs returns every
round; at population scale, dropouts, stragglers and host deaths are
the common case.  This package is the resilience layer that lets a
round complete *correctly* when legs fail:

:mod:`repro.faults.model`
    The seeded client-fault model: a :class:`~repro.faults.model
    .FaultScenario` (availability churn, dropout probability, device
    speed multipliers) drives a :class:`~repro.faults.model
    .ClientPopulation` whose per-round decisions are deterministic
    under ``FLConfig.seed`` — and, crucially, decided *server-side
    before any leg is dispatched*, so the same faults hit the same
    clients on every execution backend.
:mod:`repro.faults.policy`
    The structured failure surface and the policy itself:
    :class:`~repro.faults.policy.LegFailure` records what happened to a
    leg that did not land, :class:`~repro.faults.policy.RoundPolicy`
    carries the config knobs (``quorum``, ``failure_policy``,
    ``leg_timeout``, ``leg_retries``, ``leg_backoff``), and the
    per-round :class:`~repro.faults.policy.RoundFaults` record makes
    every decision — pre-drop, retry / reissue / final, ``fail`` abort,
    quorum, carry — for whichever round driver feeds it.
:mod:`repro.faults.engine`
    :func:`~repro.faults.engine.resilient_collect` — the sync round's
    collect under an engaged policy: the blocking wait loop that feeds
    the record in retry waves, plus mid-round recovery of dead shard
    hosts.
:mod:`repro.faults.inject`
    The chaos harness (not imported here — test/bench only):
    kill-host-at-round-N, kill-own-host mid-leg, delay-leg and
    drop-upload injectors plus the flaky-socket shim for
    :class:`~repro.distributed.rpc.RPCChannel`.

With no fault scenario and the default ``fail`` policy the engine is
never engaged and the collect path is byte-for-byte the reference
implementation — the zero-fault legs of the chaos matrix assert this.
"""

from repro.faults.model import ClientPopulation, FaultScenario, LegFault
from repro.faults.policy import FaultError, LegFailure, QuorumError, RoundPolicy

__all__ = [
    "ClientPopulation",
    "FaultScenario",
    "LegFault",
    "FaultError",
    "QuorumError",
    "LegFailure",
    "RoundPolicy",
]
