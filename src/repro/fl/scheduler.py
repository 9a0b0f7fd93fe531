"""Round schedulers — *when* rounds run, split out of ``fit()``.

:meth:`~repro.fl.server.FederatedServer.fit` owns *what* a training run
is (callbacks, finalisation, history); the scheduler owns *when* each
round's phases execute:

``sync``
    :class:`SyncRoundScheduler` — the reference schedule: each round
    (:func:`run_sync_round`) blocks on its slowest leg before the next
    one dispatches.  When the legs train off the coordinator
    (``process``, ``distributed``) the round's close is pipelined:
    round t+1 is dispatched and its legs submitted before round t is
    evaluated, so evaluation overlaps training instead of idling the
    workers — every bit, and the round order of every record, as in
    line.
``async``
    :class:`AsyncRoundScheduler` — bounded-staleness overlap: dispatch
    of round ``t+1`` begins while round ``t`` stragglers finish, with
    at most ``max_staleness + 1`` rounds in flight.  With
    ``max_staleness=0`` the window is one round wide and the scheduler
    *is* the sync one (it defers to :meth:`SyncRoundScheduler.run`).
    With ``max_staleness>0`` it drives the execution backend's
    cross-round ``submit_group`` seam and the method's *async adapter*
    (FedCross's speculative cross-aggregation — see
    :meth:`repro.core.fedcross.FedCrossServer.async_adapter`); which
    products it runs is :data:`repro.fl.config.RULES`' to say.

Either way a round is closed by :func:`close_round` — ledger, record,
extras, evaluation cadence, callbacks, ``round_idx`` — and its fault
policy is decided by one :class:`~repro.faults.policy.RoundFaults`
record; the two drivers differ only in how they wait for legs.

Overlapped-driver semantics (``max_staleness`` = S > 0)
-------------------------------------------------------
* **Window.**  Round ``t`` is created (cohort sampled, plans built —
  server RNG draws stay in round order) once round ``t - S - 1`` has
  completed, so at most ``S + 1`` rounds are ever in flight and a
  round's upload buffer (one of ``S + 1`` cycling slots) is never
  reused while its legs can still land.  On a backend whose legs train
  at submit (``serial``) the window is one round: the run is the sync
  schedule's, bit for bit.
* **Per-client serialisation.**  A client trains one leg at a time; a
  leg whose client is still busy with an earlier round waits in the
  ready queue.  The overlap win comes from *each client* starting its
  next-round leg the moment its own previous leg lands instead of
  waiting for the cohort's slowest straggler.
* **Staleness.**  Every pool row carries a version (the last round
  that blended it).  Uploads are speculatively blended by the method
  adapter as they land; a round never blends a row a *newer* round
  already owns — such late uploads are discarded and counted as
  wasted work (``stale_uploads`` in the round's ``async`` extras).
* **Faults compose per round.**  Each round opens the same
  :class:`~repro.faults.policy.RoundFaults` record the sync engine
  feeds: it pre-drops legs at creation, says whether a failed leg is
  retried (after which backoff), reissued or final, and settles quorum
  / ``fail`` / carry at the round's completion.  What is this driver's
  own is the waiting: a retry is re-queued with a not-before time on
  the injectable clock — the driver never calls ``time.sleep`` while
  other legs could progress — and the failed leg's client stays
  reserved for it.  (No shard-host failover here: that is the sync
  engine's.)
* **Communication.**  Each completed round is billed by the server
  from its record's counted submissions/landings, on every execution
  backend alike — a round's bill is its own legs', however the rounds
  overlapped.

The driver is single-threaded: all server/adapter state is touched
from the caller's thread, with the execution backend's futures as the
only concurrency boundary — the same discipline as streaming collect.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.fl.execution import _check_cohort, _leg_failure
from repro.fl.metrics import RoundRecord
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.server import DispatchPlan, FederatedServer

__all__ = [
    "RoundScheduler",
    "SyncRoundScheduler",
    "AsyncRoundScheduler",
    "ROUND_SCHEDULERS",
    "register_round_scheduler",
    "build_round_scheduler",
    "run_sync_round",
    "close_round",
]


ROUND_SCHEDULERS = Registry("round scheduler")


def register_round_scheduler(name: str):
    """Class decorator registering a :class:`RoundScheduler`."""
    return ROUND_SCHEDULERS.register(name)


def build_round_scheduler(config) -> "RoundScheduler":
    """Scheduler instance for ``config.round_mode``."""
    return ROUND_SCHEDULERS.resolve(config.round_mode).from_config(config)


def run_sync_round(server, cbs, local_round: int, rounds: int, eval_every: int) -> None:
    """One reference-schedule round: callbacks, cohort, the method's
    phases (``run_round``), then :func:`close_round`.

    Pipelined when :func:`_pipelines` allows it: once the round has
    aggregated, round t+1 is started — ``on_round_start``, cohort,
    dispatch, legs submitted (:meth:`~repro.fl.server.FederatedServer
    .start_collect`) — and only then is round t evaluated and closed,
    on this thread, while t+1's legs train.  The next call consumes
    those legs.  Every bit is the in-line order's: round t's global row
    is replaced only by t+1's aggregate, and nothing t+1 started reads
    what closing t touches.
    """
    legs = server._started_legs
    if legs is None:
        active = _begin_round(server, cbs, server.round_idx)
        extras = server.run_round(active) or {}
    else:  # started by the previous round's pipelined close
        results = server.collect(legs.active, legs.plans)
        extras = server.aggregate(legs.active, results, legs.plans) or {}
    if not _pipelines(server, local_round, rounds):
        close_round(server, cbs, extras, local_round, rounds, eval_every)
        return
    t = server.round_idx
    record = _round_record(server, extras)
    evaluate = _evaluates(t, local_round, rounds, eval_every)
    draws, suspects = server._draws(), server.last_suspects
    started = False
    try:
        active = _begin_round(server, cbs, t + 1)
        server.start_collect(active, server.dispatch(active))
        started = True
        # A stop requested while round t+1 starts comes after round t in
        # the in-line order: round t+1 still runs.  Only a stop from
        # round t's close discards it.
        stop_after_next, server.stop_training = server.stop_training, False
        server.round_idx = t
        _finish_round(server, cbs, record, evaluate)
    except BaseException:
        # Nothing of round t+1 survives; round t ends as in line: closed
        # if the error came from starting t+1, not if from closing t.
        _discard_started(server, draws, suspects)
        server.round_idx = t
        if not started:
            _finish_round(server, cbs, record, evaluate)
            server.round_idx = t + 1
        raise
    server.round_idx = t + 1
    if server.stop_training:
        _discard_started(server, draws, suspects)
    else:
        server.stop_training = stop_after_next


def _pipelines(server, local_round: int, rounds: int) -> bool:
    """Whether round t+1 starts before round t closes: another round of
    this fit follows and nobody asked to stop, the legs do not use the
    coordinator's trainer or client RNGs (the backend's declaration),
    the round is the default phase driver (no ``run_round`` or
    ``collect`` override), and no fault policy owns the round."""
    from repro.fl.server import FederatedServer  # lazy: cycle

    return (
        local_round < rounds - 1
        and not server.stop_training
        and not getattr(server.executor, "legs_use_coordinator", True)
        and not server.fault_policy.engaged
        and all(
            getattr(getattr(server, phase), "__func__", None)
            is getattr(FederatedServer, phase)
            for phase in ("run_round", "collect")
        )
    )


def _begin_round(server, cbs, t: int):
    """Open round ``t``: ``on_round_start``, then its cohort."""
    server.round_idx = t
    for cb in cbs:
        cb.on_round_start(server, t)
    active = server.select_cohort()
    server.last_suspects = []
    return active


def _discard_started(server, draws, suspects) -> None:
    """Drop a started round as if it never began: its legs drained
    unfinalized, the draws its start made rewound."""
    legs, server._started_legs = server._started_legs, None
    if legs is not None:
        legs.group.drain()
    server._rewind_draws(draws)
    server.last_suspects = suspects


def close_round(server, cbs, extras: dict, local_round: int, rounds: int, eval_every: int) -> None:
    """Close round ``server.round_idx`` — the one tail both drivers run.

    Failure / suspect extras, ledger, record, evaluation cadence,
    history, callbacks, and the ``round_idx`` advance.
    """
    record = _round_record(server, extras)
    _finish_round(
        server, cbs, record, _evaluates(server.round_idx, local_round, rounds, eval_every)
    )
    server.round_idx += 1


def _round_record(server, extras: dict) -> RoundRecord:
    """Round ``server.round_idx``'s record: failure / suspect extras and
    the ledger's round totals."""
    for key, entries in (
        ("leg_failures", server.last_leg_failures),
        ("suspect_uploads", server.last_suspects),
    ):
        if entries:
            extras.setdefault(key, [entry.summary() for entry in entries])
    up, down = server.ledger.end_round()
    return RoundRecord(
        round_idx=server.round_idx,
        train_loss=extras.pop("train_loss", None),
        comm_up_params=up,
        comm_down_params=down,
        extras=extras,
    )


def _evaluates(t: int, local_round: int, rounds: int, eval_every: int) -> bool:
    # Compare against the *local* round counter: ``round_idx`` is global
    # across fit() calls, so a resumed fit(n) would otherwise never hit
    # its guaranteed final-round evaluation.
    return (t + 1) % eval_every == 0 or local_round == rounds - 1


def _finish_round(server, cbs, record: RoundRecord, evaluate: bool) -> None:
    """Evaluation (when due), history, ``on_evaluate`` / ``on_round_end``."""
    if evaluate:
        record.accuracy, record.loss = server.evaluate()
        for cb in cbs:
            cb.on_evaluate(server, record)
    server.history.append(record)
    for cb in cbs:
        cb.on_round_end(server, record)


class RoundScheduler:
    """Drives the per-round loop inside :meth:`FederatedServer.fit`."""

    name = "abstract"

    @classmethod
    def from_config(cls, config) -> "RoundScheduler":
        return cls()

    def run(self, server: "FederatedServer", rounds: int, cbs: list) -> None:
        raise NotImplementedError


@register_round_scheduler("sync")
class SyncRoundScheduler(RoundScheduler):
    """The reference schedule: each round blocks on its slowest leg."""

    name = "sync"

    def run(self, server, rounds, cbs) -> None:
        eval_every = server.config.eval_every
        for local_round in range(rounds):
            run_sync_round(server, cbs, local_round, rounds, eval_every)
            if server.stop_training and server._started_legs is None:
                break


@dataclass
class _Leg:
    """One in-flight (or queued) training leg of the overlapped driver."""

    t: int
    i: int  # plan index within its round
    client: Any
    row: int
    plan: "DispatchPlan"
    reserved: bool = False  # this leg itself holds its client's busy slot
    not_before: float = 0.0  # backoff gate on the injectable clock
    deadline: "float | None" = None
    group: Any = None
    j: int = 0  # index within its submission group
    future: "Future | None" = None


@dataclass
class _Round:
    """Book-keeping for one created-but-not-completed round."""

    t: int
    local_round: int
    plans: list
    uploads: Any
    ctx: Any
    results: list
    faults: Any  # the round's RoundFaults record (owns cohort and rows)
    carry: dict = field(default_factory=dict)  # plan index -> dispatched row
    resolved: int = 0
    max_stale: int = 0

    @property
    def done(self) -> bool:
        return self.resolved >= len(self.plans)


@register_round_scheduler("async")
class AsyncRoundScheduler(RoundScheduler):
    """Bounded-staleness overlapped schedule (see module docstring).

    ``clock`` / ``sleep`` are injectable (default ``time.monotonic`` /
    ``time.sleep``) so retry backoff and leg deadlines are testable
    without real waiting — and immune to wall-clock (NTP) steps.
    """

    name = "async"

    def __init__(self, max_staleness: int = 0, clock=time.monotonic, sleep=time.sleep) -> None:
        if max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        self.max_staleness = int(max_staleness)
        self.clock = clock
        self.sleep = sleep

    @classmethod
    def from_config(cls, config) -> "AsyncRoundScheduler":
        return cls(max_staleness=config.max_staleness)

    def run(self, server, rounds, cbs) -> None:
        if self.max_staleness == 0:
            # Window of width one *is* the sync schedule.
            return SyncRoundScheduler().run(server, rounds, cbs)
        self._run_overlapped(server, rounds, cbs)

    # -- overlapped driver -------------------------------------------------
    def _run_overlapped(self, server, rounds, cbs) -> None:
        backend = server.executor
        adapter = server.async_adapter()
        S = self.max_staleness
        window = 0 if getattr(backend, "legs_done_at_submit", False) else S
        k = server.config.clients_per_round
        backend.reserve((S + 1) * k)
        eval_every = server.config.eval_every
        start = server.round_idx
        states: "dict[int, _Round]" = {}
        ready: "deque[_Leg]" = deque()
        inflight: "dict[Future, _Leg]" = {}
        busy: set = set()
        next_create = 0
        next_complete = 0
        stop = False
        try:
            while next_complete < rounds:
                while (
                    not stop
                    and next_create < rounds
                    and next_create - next_complete <= window
                ):
                    t = start + next_create
                    states[next_create] = self._create_round(
                        server, adapter, cbs, t, next_create, ready
                    )
                    next_create += 1
                if next_complete == next_create:
                    break  # stop_training drained every created round
                self._submit_ready(server, adapter, ready, busy, inflight, states)
                self._wait_and_land(server, adapter, ready, busy, inflight, states)
                while next_complete < next_create and states[next_complete].done:
                    rs = states.pop(next_complete)
                    self._complete_round(server, adapter, cbs, rs, rounds, eval_every)
                    next_complete += 1
                    if server.stop_training:
                        stop = True
        finally:
            if inflight:
                for future in inflight:
                    future.cancel()
                wait(list(inflight))  # drain zombies; results discarded
            adapter.finalize()

    def _create_round(self, server, adapter, cbs, t: int, local_round: int, ready) -> _Round:
        server.round_idx = t  # creation-time phases draw RNG in round order
        for cb in cbs:
            cb.on_round_start(server, t)
        active = server.select_cohort()
        server.last_suspects = []
        plans = server.dispatch(active)
        rows = [int(plan.context.get("row", i)) for i, plan in enumerate(plans)]
        n = len(active)
        uploads = server._model_buffer(("async", t % (self.max_staleness + 1)), n)
        _check_cohort(active, plans, rows, uploads)
        rs = _Round(
            t=t,
            local_round=local_round,
            plans=plans,
            uploads=uploads,
            ctx=adapter.begin_round(t, uploads),
            results=[None] * n,
            faults=server.fault_policy.open_round(server.fault_model, t, active, rows),
        )
        for i in range(n):
            if i in rs.faults.failures:
                # Pre-decided simulated fault: never dispatched.  Copy
                # the dispatched row *now* — a later round's
                # speculative blend may rewrite the live pool row
                # before this round's carry lands.
                rs.carry[i] = adapter.plan_row(rows[i])
                rs.resolved += 1
            else:
                ready.append(
                    _Leg(t=local_round, i=i, client=active[i], row=rows[i], plan=plans[i])
                )
        return rs

    def _submit_ready(self, server, adapter, ready, busy, inflight, states) -> None:
        now = self.clock()
        eligible: "dict[int, list[_Leg]]" = {}
        hold = []
        while ready:
            leg = ready.popleft()
            if leg.not_before > now or (
                leg.client.client_id in busy and not leg.reserved
            ):
                # Backoff-gated, or the client is busy with *another*
                # leg.  A retry re-queued by ``_fail`` keeps its own
                # client reservation (``reserved``) — busy then means
                # "reserved for exactly this leg", not "occupied".
                hold.append(leg)
            else:
                busy.add(leg.client.client_id)
                leg.reserved = False
                eligible.setdefault(leg.t, []).append(leg)
        ready.extend(hold)
        if not eligible:
            return
        policy = server.fault_policy
        backend = server.executor
        for t in sorted(eligible):
            legs = eligible[t]
            rs = states[t]
            sub_plans = []
            for leg in legs:
                rs.faults.submitted(leg.i)
                if leg.i not in rs.carry:
                    # First submission: read (and privately copy) the
                    # row as it is *now* — retries re-train these exact
                    # bytes, and the carry degradation restores
                    # it, even if speculative blends move the live row
                    # under the in-flight leg.
                    rs.carry[leg.i] = adapter.plan_row(leg.row)
                    rs.max_stale = max(
                        rs.max_stale, (rs.t - 1) - adapter.version_of(leg.row)
                    )
                sub_plans.append(replace(leg.plan, flat=rs.carry[leg.i]))
            attacks = rs.faults.attacks
            sub_attacks = {
                j: attacks[leg.i] for j, leg in enumerate(legs) if leg.i in attacks
            }
            group = backend.submit_group(
                server.trainer,
                [leg.client for leg in legs],
                sub_plans,
                [leg.row for leg in legs],
                rs.uploads,
                attacks=sub_attacks or None,
            )
            deadline = (
                None
                if policy.leg_timeout is None
                else self.clock() + float(policy.leg_timeout)
            )
            for j, leg in enumerate(legs):
                leg.group = group
                leg.j = j
                leg.future = group.futures[j]
                leg.deadline = deadline
                inflight[leg.future] = leg

    def _wait_and_land(self, server, adapter, ready, busy, inflight, states) -> None:
        now = self.clock()
        gates = [leg.not_before for leg in ready if leg.not_before > now]
        if not inflight:
            # Nothing in flight: every queued leg is either backoff-gated
            # or held behind a gated retry's busy client.  Advance the
            # injectable clock to the earliest gate — min over *future*
            # gates only, else a held leg with not_before=0 would pin
            # the gate at zero and spin.
            if gates:
                self.sleep(min(gates) - now)
            return
        # Wake at the earliest backoff gate or leg deadline.
        wake = gates + [
            leg.deadline for leg in inflight.values() if leg.deadline is not None
        ]
        timeout = max(0.0, min(wake) - now) if wake else None
        done, _ = wait(set(inflight), timeout=timeout, return_when=FIRST_COMPLETED)
        for future in done:
            leg = inflight.pop(future)
            self._land(server, adapter, leg, future, ready, busy, states)
        if not done:
            now = self.clock()
            expired = [
                leg
                for future, leg in list(inflight.items())
                if leg.deadline is not None and leg.deadline <= now
            ]
            for leg in expired:
                inflight.pop(leg.future, None)
                leg.future.cancel()
                wait([leg.future])  # drain: late work is discarded
                leg.group.leg_done()
                failure = _leg_failure(
                    leg.client, leg.row, leg.i, "timeout", drained=True
                )
                self._fail(server, leg, failure, ready, busy, states)

    def _land(self, server, adapter, leg, future, ready, busy, states) -> None:
        rs = states[leg.t]
        try:
            raw = future.result()
        except (KeyboardInterrupt, SystemExit, GeneratorExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - policy decides
            leg.group.leg_done()
            failure = _leg_failure(leg.client, leg.row, leg.i, "error", exc)
            self._fail(server, leg, failure, ready, busy, states)
            return
        result = leg.group.finalize(leg.j, raw)
        leg.group.leg_done()
        busy.discard(leg.client.client_id)
        rs.results[leg.i] = result
        rs.faults.ups += 1
        rs.resolved += 1
        server.round_idx = rs.t
        server._uploads = rs.uploads  # on_upload consumers key on it
        server.on_upload(leg.row, result)
        adapter.upload_landed(rs.ctx, leg.row)

    def _fail(self, server, leg, failure, ready, busy, states) -> None:
        rs = states[leg.t]
        delay = rs.faults.failed(leg.i, failure)
        if delay is None:  # final: the round carries it at completion
            busy.discard(leg.client.client_id)
            rs.resolved += 1
            return
        leg.not_before = self.clock() + delay
        leg.reserved = True  # client stays reserved for its retry
        ready.append(leg)

    def _complete_round(self, server, adapter, cbs, rs: _Round, rounds, eval_every) -> None:
        server.round_idx = rs.t
        server._uploads = rs.uploads
        server.round_faults = rs.faults
        for i in rs.faults.failures:
            row = rs.faults.rows[i]
            if rs.faults.tries[i] == 0 and adapter.version_of(row) <= rs.t - 1:
                # Pre-dropped leg (never submitted): its creation-time
                # copy predates the reconciliation of rounds < t, which
                # all completed by now.  Re-read the live row — unless a
                # newer round already speculatively owns it, in which
                # case the creation-time snapshot stays the closest
                # thing to "the state this round dispatched".
                rs.carry[i] = adapter.plan_row(row)
        rs.faults.close(server, rs.uploads, rs.carry, rs.results)
        active = rs.faults.active
        extras = adapter.complete_round(rs.ctx, active, rs.results, rs.plans) or {}
        info = extras.get("async")
        if isinstance(info, dict):
            info["max_dispatch_staleness"] = max(0, rs.max_stale)
        server.charge_round_communication(active)
        close_round(server, cbs, extras, rs.local_round, rounds, eval_every)
