"""The fault-aware collect loop: retry, recover, degrade, account.

:func:`resilient_collect` is the engine the server swaps in for its
streaming collect whenever the round policy is *engaged* (a fault
scenario, a non-``fail`` failure policy, retries or a wall-clock
timeout).  It drives the execution backend through its captured stream
(:meth:`~repro.fl.execution.ExecutionBackend.run_streaming_captured`) and
enforces the policy:

1. **Pre-drop simulated faults.**  The seeded fault model decided every
   leg's fate before dispatch; unavailable / dropped / straggling legs
   are never submitted (zero communication, on every backend).
2. **Retry infrastructure failures.**  Legs that error or time out are
   resubmitted up to ``leg_retries`` times with exponential backoff —
   each retry first restores the client's RNG snapshot so a successful
   retry is bit-identical to a leg that never failed.
3. **Recover dead shard hosts.**  When the upload buffer lives on
   replicated distributed storage, a host death surfaces as a burst of
   leg errors; the engine respawns the host (``ensure_fleet``), replays
   its rows from the coordinator mirror, and retrains the legs whose
   *completed* uploads died with the host — outside the retry budget,
   because those legs did nothing wrong.
4. **Degrade gracefully.**  Exhausted legs are carried (``carry``: the
   stale dispatched row is kept so CrossAggr / GramTracker stay
   consistent) or reissued once more (``redispatch``), and the round
   counts as long as the fresh-upload quorum holds; below quorum the
   round aborts with :class:`~repro.faults.policy.QuorumError`.

Communication is accounted in *leg counts* (``downs`` per submission,
``ups`` per landing) and handed to the server, whose analytic charge
multiplies by model size — matching what the distributed backend's
measured ledger records per socket transfer.  With zero faults the
engine submits every leg exactly once and lands every leg exactly once,
so the accounting (and every byte of training) is identical to the
reference collect.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.faults.policy import (
    FaultError,
    LegFailure,
    QuorumError,
    describe_failures,
    restore_rng,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.trainer import LocalResult

__all__ = ["resilient_collect"]


def resilient_collect(server, active, plans, rows, uploads, *, sleep=None):
    """Fault-aware twin of ``FLServer.collect`` (streaming semantics).

    Returns results in plan order — every index filled, with carried
    legs holding their stale dispatched state at ``num_samples=0`` so
    loss averaging and sample weighting ignore them naturally.  Raises
    :class:`FaultError` under the ``fail`` policy and
    :class:`QuorumError` when fewer fresh uploads landed than
    ``quorum`` requires.

    All engine and backend clocks are monotonic: the per-leg wall-clock
    timeout rides ``time.monotonic()`` inside the captured stream and
    the backoff delay below never consults wall time, so an NTP step
    mid-round can neither spuriously expire nor immortalise a leg.
    ``sleep`` is injectable — explicitly, or via ``server.fault_sleep``
    — so scheduler tests and the chaos soak never wait for real.
    """
    from repro.fl.execution import _check_cohort  # lazy: avoids import cycle
    from repro.fl.trainer import LocalResult

    policy = server.fault_policy
    if sleep is None:
        sleep = getattr(server, "fault_sleep", None) or time.sleep
    _check_cohort(active, plans, rows)
    n = len(active)
    results: "list[LocalResult | None]" = [None] * n
    # RNG snapshots taken before anything runs: a retried / carried leg
    # must look exactly like a leg that trained once / never trained.
    snapshots = [active[i].rng.bit_generator.state for i in range(n)]
    tries = [0] * n

    # -- 1. pre-decided simulated faults (never dispatched) + attacks -----
    failures, attacks = policy.pre_decide(
        server.fault_model, server.round_idx, active, rows
    )
    backend = server.executor.backend
    pending = [i for i in range(n) if i not in failures]
    storage = getattr(uploads, "storage", None)
    can_recover = (
        policy.failure_policy != "fail"
        and callable(getattr(storage, "ensure_fleet", None))
    )
    downs = 0
    ups = 0
    attempt = 0
    reissued = False
    # Spin guard: every spin either lands legs or burns retry budget /
    # the one redispatch / a host recovery, all of which are bounded.
    hosts = len(getattr(storage, "host_spans", lambda: ())()) if storage else 0
    max_spins = policy.leg_retries + (hosts if can_recover else 0) + 3
    spins = 0

    while pending and spins < max_spins:
        spins += 1
        sub = pending
        pending = []
        sub_active = [active[i] for i in sub]
        sub_plans = [plans[i] for i in sub]
        sub_rows = [rows[i] for i in sub]
        for i in sub:
            tries[i] += 1
        downs += len(sub)
        fresh: list[int] = []
        sub_attacks = {j: attacks[i] for j, i in enumerate(sub) if i in attacks}
        for j, out in backend.run_streaming_captured(
            server.trainer, sub_active, sub_plans, sub_rows, uploads,
            timeout=policy.leg_timeout, attacks=sub_attacks or None,
        ):
            i = sub[j]
            if isinstance(out, LegFailure):
                failures[i] = out.replace(
                    index=i,
                    client_id=active[i].client_id,
                    row=int(rows[i]),
                    attempts=tries[i],
                )
                server.ledger.note_leg_failure()
                fresh.append(i)
            else:
                results[i] = out
                ups += 1
                failures.pop(i, None)
                server.on_upload(rows[i], out)

        # -- 3. shard-host failover ------------------------------------
        if can_recover and fresh:
            recovered = storage.ensure_fleet()
            if recovered:
                # Rows written by legs that already *completed* on the
                # dead host are gone; their mirror copy predates the
                # upload.  Retrain them as recovery legs — outside the
                # retry budget, these legs did not fail.
                lost = set(storage.lost_rows())
                for i in range(n):
                    if results[i] is not None and int(rows[i]) in lost:
                        results[i] = None
                        ups -= 1
                        restore_rng(active[i], snapshots[i])
                        pending.append(i)

        # -- 2. bounded retry with backoff ------------------------------
        retry = [i for i in fresh if failures[i].retryable]
        if retry:
            if attempt < policy.leg_retries:
                attempt += 1
                delay = policy.backoff_delay(attempt)
                if delay > 0:
                    sleep(delay)
            elif policy.failure_policy == "redispatch" and not reissued:
                reissued = True
            else:
                retry = []
            for i in retry:
                restore_rng(active[i], snapshots[i])
                failures.pop(i, None)
                pending.append(i)

    # Guard tripped with work left: abandon, don't loop forever.
    for i in pending:
        failures[i] = LegFailure(
            index=i,
            client_id=active[i].client_id,
            row=int(rows[i]),
            kind="error",
            message="leg abandoned after repeated shard-host recovery",
            attempts=tries[i],
        )

    # -- 4. policy finalisation -------------------------------------------
    if failures and policy.failure_policy == "fail":
        raise FaultError(
            f"round {server.round_idx} aborted under failure_policy="
            f"'fail': {describe_failures(failures)}"
        )
    survivors = n - len(failures)
    required = policy.required_legs(n)
    if survivors < required:
        raise QuorumError(
            f"round {server.round_idx}: {survivors}/{n} fresh uploads, "
            f"quorum {policy.quorum:g} requires {required} — "
            f"{describe_failures(failures)}"
        )
    # Carry what's left: the stale dispatched row stays in the buffer
    # (CrossAggr / GramTracker keep a consistent K-row view) and the
    # client's RNG rewinds to its pre-round snapshot, as if the leg had
    # never been scheduled.
    for i, failure in sorted(failures.items()):
        uploads.set_state(rows[i], plans[i].state)
        restore_rng(active[i], snapshots[i])
        results[i] = LocalResult(
            state=plans[i].state, num_samples=0, num_steps=0, mean_loss=0.0
        )
        server.on_upload(rows[i], results[i])

    ordered = [failures[i] for i in sorted(failures)]
    server.last_leg_failures = ordered
    server._round_leg_comm = (downs, ups)
    for failure in ordered:
        for cb in server.callbacks:
            cb.on_leg_failure(server, failure)
    return results
