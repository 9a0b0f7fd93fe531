"""The sync round's fault-aware collect loop: wait, retry in waves, recover.

:func:`resilient_collect` is what the server's collect runs whenever
the round policy is *engaged* (a fault scenario, a non-``fail`` failure
policy, retries or a wall-clock timeout).  Every policy *decision* —
pre-drops, retry / reissue / final, the ``fail`` abort, quorum, carry —
is made by the round's :class:`~repro.faults.policy.RoundFaults` record,
the same object the overlapped async driver feeds; this module keeps
only what is particular to a blocking round:

1. **The wait loop.**  Pending legs go to the execution backend as one
   captured group (:meth:`~repro.fl.execution.ExecutionBackend
   .run_streaming_captured`); the legs the record wants retried form
   the next wave, after one sleep of the wave's backoff delay.
2. **Shard-host failover.**  When the upload buffer lives on
   replicated distributed storage, a host death surfaces as a burst of
   leg errors; the engine respawns the host (``ensure_fleet``), replays
   its rows from the coordinator mirror, and retrains the legs whose
   *completed* uploads died with the host — as recovery legs, which
   did nothing wrong.  (The async driver has no failover yet.)

With zero faults the engine submits every leg exactly once and lands
every leg exactly once, so the accounting (and every byte of training)
is identical to the plain streaming collect.
"""

from __future__ import annotations

import time

from repro.faults.policy import LegFailure

__all__ = ["resilient_collect"]


def resilient_collect(server, active, plans, rows, uploads, *, sleep=None):
    """``FederatedServer.collect`` under an engaged round policy.

    Returns results in plan order — every index filled, carried legs
    holding their stale dispatched row at ``num_samples=0``.  Raises
    :class:`~repro.faults.policy.FaultError` /
    :class:`~repro.faults.policy.QuorumError` as the round's record
    decides.

    All engine and backend clocks are monotonic: the per-leg wall-clock
    timeout rides ``time.monotonic()`` inside the captured stream and
    the backoff delay below never consults wall time, so an NTP step
    mid-round can neither spuriously expire nor immortalise a leg.
    ``sleep`` is injectable — explicitly, or via ``server.fault_sleep``
    — so scheduler tests and the chaos soak never wait for real.
    """
    from repro.fl.execution import _check_cohort  # lazy: avoids import cycle

    policy = server.fault_policy
    if sleep is None:
        sleep = getattr(server, "fault_sleep", None) or time.sleep
    _check_cohort(active, plans, rows, uploads)
    n = len(active)
    results: list = [None] * n
    record = server.round_faults = policy.open_round(
        server.fault_model, server.round_idx, active, rows
    )
    backend = server.executor
    pending = [i for i in range(n) if i not in record.failures]
    storage = getattr(uploads, "storage", None)
    can_recover = (
        policy.failure_policy != "fail"
        and callable(getattr(storage, "ensure_fleet", None))
    )
    # Spin guard: every spin either lands legs or burns retry budget /
    # a leg's one reissue / a host recovery, all of which are bounded.
    hosts = len(getattr(storage, "host_spans", lambda: ())()) if storage else 0
    max_spins = policy.leg_retries + (hosts if can_recover else 0) + 3
    spins = 0

    while pending and spins < max_spins:
        spins += 1
        sub = pending
        pending = []
        for i in sub:
            record.submitted(i)
        delays: "dict[int, float | None]" = {}  # failed leg -> record's verdict
        sub_attacks = {
            j: record.attacks[i] for j, i in enumerate(sub) if i in record.attacks
        }
        for j, out in backend.run_streaming_captured(
            server.trainer, [active[i] for i in sub], [plans[i] for i in sub],
            [rows[i] for i in sub], uploads,
            timeout=policy.leg_timeout, attacks=sub_attacks or None,
        ):
            i = sub[j]
            if isinstance(out, LegFailure):
                delays[i] = record.failed(i, out)
            else:
                results[i] = out
                record.ups += 1
                server.on_upload(rows[i], out)

        if can_recover and delays and storage.ensure_fleet():
            # Rows written by legs that already *completed* on the dead
            # host are gone; their mirror copy predates the upload.
            # Retrain them as recovery legs — these legs did not fail.
            lost = set(storage.lost_rows())
            for i in range(n):
                if results[i] is not None and record.rows[i] in lost:
                    results[i] = None
                    record.lost(i)
                    pending.append(i)

        # The next wave: legs the record wants retried, after one sleep
        # of their backoff (a sync wave's legs have all failed equally
        # often, so they share it; a reissue waits for nothing).
        retry = {i: delay for i, delay in delays.items() if delay is not None}
        if any(retry.values()):
            sleep(max(retry.values()))
        pending.extend(retry)

    # Guard tripped with work left: abandon, don't loop forever.
    for i in pending:
        record.failures[i] = LegFailure(
            index=i,
            client_id=active[i].client_id,
            row=record.rows[i],
            kind="error",
            message="leg abandoned after repeated shard-host recovery",
            attempts=record.tries[i],
        )

    record.close(server, uploads, [plan.flat for plan in plans], results)
    return results
