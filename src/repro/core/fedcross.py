"""The FedCross server (Algorithm 1).

Maintains K middleware models; each round:

* line 4-5: sample K clients and *shuffle* the model→client assignment
  (without shuffling, a middleware model keeps meeting the same
  clients — benched in the shuffle ablation);
* line 7-10: local training of each middleware model on its client;
* line 11-14: ``CoModelSel`` + ``CrossAggr`` produce the next pool;
* line 17: ``GlobalModelGen`` averages the pool into the
  deployment-only global model (used here for per-round evaluation,
  exactly like the paper's "pseudo-global model" for Figure 5).

The pool lives in a vectorized :class:`repro.core.pool.PoolBuffer`
(one ``(K, P)`` float32 matrix) across rounds, so every server-side
step — similarity ranking, cross-aggregation, global-model generation
— is a handful of BLAS-level array ops instead of per-key dict loops.
The ``middleware`` attribute remains a list-of-state-dicts view for
diagnostics and tests.

The K local-training legs themselves run on the server's pluggable
execution backend (:mod:`repro.fl.execution`): each plan carries its
middleware index as the upload-buffer ``row``, so ``process`` workers
pack trained models straight into shared-memory rows in model order —
bit-identical to the sequential schedule, K-way parallel in wall
clock.

Similarity work rides the **incremental Gram engine**
(:class:`repro.core.gram.GramTracker`) whenever cosine similarity
drives ``CoModelSel``: the streaming collect phase feeds one O(K·P)
row update per landing upload (hidden behind still-running legs), so
by aggregation time selection is a ``(K, K)`` argmin on the tracked
Gram, the new pool's Gram follows by the closed-form post-CrossAggr
transform, and ``middleware_similarity()`` is served as pure algebra
without re-reading pool data — within the ulp tolerances documented in
:mod:`repro.core.gram`.  ``in_order`` runs skip the maintenance
entirely; ``euclidean`` selects on the blocked distance matrix.  Every
other cosine read builds a fresh tracker (``GramTracker.from_pool``).

The ``method_params`` FedCross reads are the knobs of
:class:`FedCrossServer.Options` (paper defaults, Section IV-A);
``python -m repro list`` prints them with their defaults.  Any other
key is refused at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.acceleration import DynamicAlphaSchedule, propeller_index_matrix
from repro.core.gram import GramTracker
from repro.core.pool import PoolBuffer, blend_row
from repro.core.selection import MEASURES, CoModelSel, select_in_order
from repro.fl.client import Client
from repro.fl.config import knob, parse_knobs
from repro.fl.metrics import TrainingHistory
from repro.fl.registry import register_method
from repro.fl.server import DispatchPlan, FederatedServer
from repro.fl.trainer import LocalResult

__all__ = ["FedCrossServer", "validate_alpha"]


def validate_alpha(alpha: float) -> float:
    """``alpha`` as a float, held to FedCross's ``alpha`` knob: in (0, 1).  The
    paper recommends [0.5, 1) but sweeps up to 0.999 (Table III); callers choose."""
    return float(parse_knobs(FedCrossServer.Options, {"alpha": alpha}, "FedCross").alpha)


@register_method("fedcross")
class FedCrossServer(FederatedServer):
    """Multi-to-multi training with multi-model cross-aggregation."""

    @dataclass(frozen=True)
    class Options:
        alpha: float = knob(
            "--alpha", 0.99, "fedcross", "FedCross fusion weight alpha (paper: 0.99).",
            check=(lambda v: 0.0 < float(v) < 1.0, "in (0, 1)"),
        )
        selection: str = knob(
            "--selection", "lowest", "fedcross", "FedCross CoModelSel strategy.",
            choices=CoModelSel.STRATEGIES,
        )
        measure: str = knob(None, "cosine", "fedcross", "CoModelSel measure.", choices=MEASURES)
        shuffle: bool = knob(None, True, "fedcross", "Shuffle model->client (Algorithm 1 l. 5).")
        propeller_rounds: int = knob(None, 0, "fedcross", "Rounds of propeller warm-up.")
        num_propellers: int = knob(None, 3, "fedcross", "Propellers per model in warm-up.")
        dynamic_alpha_rounds: int = knob(None, 0, "fedcross", "Rounds of the 0.5->alpha ramp.")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        options = self.options
        self.alpha = float(options.alpha)
        self.shuffle = bool(options.shuffle)
        param_keys = {name for name, _ in self.model.named_parameters()}
        self.selector = CoModelSel(
            strategy=options.selection, measure=options.measure, param_keys=param_keys
        )
        self.propeller_rounds = int(options.propeller_rounds)
        stale = self.config.max_staleness if self.config.round_mode == "async" else 0
        if self.propeller_rounds > 0 and stale > 0:  # RULES cannot read an option
            raise ValueError(
                "round_mode='async' with max_staleness > 0 does not compose with propeller "
                f"warm-up (got propeller_rounds={self.propeller_rounds}, max_staleness={stale})"
            )
        self.num_propellers = int(options.num_propellers)
        da_rounds = int(options.dynamic_alpha_rounds)
        # PM-DA staging (Figure 9): propellers first, then the alpha ramp.
        self._da_schedule = (
            DynamicAlphaSchedule(self.alpha, da_rounds + self.propeller_rounds)
            if da_rounds > 0
            else None
        )

        k = self.config.clients_per_round
        # Line 2 of Algorithm 1: all K middleware models start from the
        # same deterministic init (so FedCross and the baselines share a
        # starting point for fair curves).  The pool is one (K, P)
        # float32 matrix, kept in buffer form for the whole run: it
        # replaces the base class's single global row.
        self._pool = PoolBuffer.broadcast(
            self._layout, self._global, k, backend=self.backend,
            backend_options=self.row_options,
        )
        self._global = None
        self.result_extras: dict = {}
        # Incremental-similarity engine: when cosine similarity drives
        # CoModelSel, a GramTracker follows the upload buffer row by
        # row as legs land (O(K·P) per upload, hidden behind
        # still-running legs under streaming collect), selection
        # becomes (K, K) algebra on the tracked Gram, and the
        # closed-form post-CrossAggr transform keeps a pool Gram for
        # the diagnostic without ever re-reading pool data.  in_order
        # runs skip the maintenance cost entirely (they never needed
        # similarity) and euclidean selects on the blocked distance
        # matrix (Gram-recovered distances cancel catastrophically).
        self._track_gram = (
            self.selector.strategy in ("highest", "lowest")
            and self.selector.measure == "cosine"
        )
        self._upload_gram: GramTracker | None = None
        self._pool_gram: GramTracker | None = None
        # Async round support: one tracker per live upload buffer (the
        # overlapped scheduler cycles S+1 buffer slots, each mid-round
        # at once) and the cached deployment row of the newest
        # *completed* round (see :meth:`global_row`).
        self._upload_gram_map: dict[int, GramTracker] = {}
        self._async_eval_row: np.ndarray | None = None

    # -- pool access ---------------------------------------------------------
    @property
    def middleware(self) -> list[dict]:
        """The pool as state dicts (zero-copy views into the buffer)."""
        return self._pool.states()

    @middleware.setter
    def middleware(self, states: Sequence[Mapping[str, np.ndarray]]) -> None:
        self._pool = PoolBuffer.from_states(
            list(states), layout=self._layout, dtype=np.float32,
            backend=self.backend, backend_options=self.row_options,
        )
        self._pool_gram = None  # pool replaced outside the tracked flow

    @property
    def pool(self) -> PoolBuffer:
        """The live middleware pool buffer."""
        return self._pool

    # -- alpha / acceleration -------------------------------------------------
    def alpha_at(self, round_idx: int) -> float:
        """Effective fusion weight for ``round_idx`` (dynamic-α aware)."""
        if self._da_schedule is not None and round_idx >= self.propeller_rounds:
            return self._da_schedule.alpha_at(round_idx)
        return self.alpha

    def _use_propellers(self, round_idx: int) -> bool:
        return round_idx < self.propeller_rounds

    # -- Algorithm 1 as phases ---------------------------------------------------
    def dispatch(self, active: list[Client]) -> list[DispatchPlan]:
        """Lines 4-5: shuffle the model → client assignment.

        Middleware model i goes to client ``active[assignment[i]]``:
        the plan carries pool row i itself and its model index as the
        upload-buffer ``row``, so the default ``collect`` packs uploads
        back in model order.  Nothing is read here: on remote storage
        the plan carries a reference to the row
        (:meth:`~repro.core.storage.PoolStorage.row_ref`), fetched only
        by a consumer that needs the bytes — a leg trained on the row's
        own shard host never moves it.  A sync round never writes the
        pool: CrossAggr blends into the round's upload buffer, and the
        old pool takes in the *next* round's uploads, so a plan's row
        reference needs no snapshot and stays valid until the next
        round's collect.
        """
        k = len(self._pool)
        if len(active) != k:
            raise RuntimeError(
                f"FedCross needs exactly K={k} active clients, got {len(active)}"
            )
        assignment = list(range(k))
        if self.shuffle:
            self.rng.shuffle(assignment)
        plans: list[DispatchPlan | None] = [None] * k
        for i in range(k):
            plans[assignment[i]] = DispatchPlan(
                self._pool.storage.row_ref(i), context={"row": i}
            )
        return plans

    def on_upload(self, row: int, result: LocalResult) -> None:
        """Feed the incremental Gram as each upload lands (O(K·P)).

        Row updates are bitwise independent of arrival order (see
        :class:`~repro.core.gram.GramTracker`), so streamed completion
        order and the gathered plan-order schedule produce the same
        Gram — the property that keeps streaming collect bit-identical.
        """
        if not self._track_gram:
            return
        tracker = self._upload_tracker(self.uploads)
        self._upload_gram = tracker
        tracker.update_row(row)

    def _upload_tracker(self, uploads: PoolBuffer) -> GramTracker:
        """The tracker following ``uploads`` (one per live buffer).

        The sync schedule only ever has one upload buffer mid-round;
        the async schedule cycles ``S + 1`` slots with several
        mid-round at once, so trackers are kept per buffer identity.
        Reuse across rounds on the same buffer is sound: every round's
        K ``on_upload`` calls fully refresh all K rows, and pairwise
        dots among rows landed in the *same* round are recomputed by
        whichever update runs later — the speculative selector only
        ever compares rows within the round's landed set.
        """
        tracker = self._upload_gram_map.get(id(uploads))
        if tracker is None or tracker.pool is not uploads:
            tracker = GramTracker(uploads, param_keys=self.selector.param_keys)
            self._upload_gram_map[id(uploads)] = tracker
        return tracker

    def _round_tracker(self, uploaded: PoolBuffer) -> GramTracker | None:
        """The tracker that followed this round's uploads, if any."""
        tracker = self._upload_gram
        if not self._track_gram or tracker is None or tracker.pool is not uploaded:
            return None
        return tracker

    def screen_uploads(
        self,
        uploaded: PoolBuffer,
        active: list[Client],
        plans: list[DispatchPlan],
        tracker: GramTracker | None,
    ) -> None:
        """Gram-based anomaly screen over this round's landed uploads.

        Scores every row's distance from the upload mean straight off
        the ``(K, K)`` Gram — O(K²) algebra on matrix entries that
        already exist, never a fresh ``(K, P)`` pass when the
        incremental tracker followed the round.  Flagged rows become
        :class:`~repro.robust.screen.SuspectRecord`\\ s on
        ``last_suspects`` (surfaced in the round's history extras) and
        fire :meth:`~repro.fl.callbacks.ServerCallback.on_suspect_upload`;
        under ``screen="carry"`` each flagged row is additionally
        quarantined — its dispatched middleware state restored (the
        same degradation the fault engine applies to failed legs) and
        the tracker told (``update_row``), so CoModelSel and CrossAggr
        never see the suspect update.
        """
        mode = self.screen
        k = len(uploaded)
        if mode is None or k < 3:
            return
        from repro.robust.screen import SuspectRecord, screen_scores

        if tracker is None:  # no tracker followed the round: a fresh Gram
            gram = GramTracker.from_pool(uploaded, self.selector.param_keys).gram
        else:
            gram = tracker.gram
        scores, threshold, flagged = screen_scores(gram)
        if flagged.size == 0:
            return
        # Plan j carries its middleware index as context["row"] and was
        # trained by active[j] — invert that to name the suspect client.
        by_row: dict[int, tuple[int, DispatchPlan]] = {}
        for j, plan in enumerate(plans):
            if plan is not None and j < len(active):
                by_row[int(plan.context["row"])] = (active[j].client_id, plan)
        records = []
        for row in flagged:
            row = int(row)
            client_id, plan = by_row.get(row, (-1, None))
            records.append(
                SuspectRecord(
                    row=row,
                    client_id=int(client_id),
                    score=float(scores[row]),
                    threshold=float(threshold),
                    action=mode,
                )
            )
            if mode == "carry" and plan is not None:
                uploaded.set_row(row, plan.flat)
                if tracker is not None:
                    # aggregate() reads the Gram after this: selection
                    # sees the quarantined row, not the suspect one.
                    tracker.update_row(row)
        self.last_suspects = records
        for record in records:
            for cb in self.callbacks:
                cb.on_suspect_upload(self, record)

    def aggregate(
        self,
        active: list[Client],
        results: list[LocalResult],
        plans: list[DispatchPlan],
    ) -> dict:
        """Lines 11-14: CoModelSel + CrossAggr over the uploaded pool.

        When the tracker followed this round's uploads, CoModelSel runs
        on the tracked Gram (pure ``(K, K)`` algebra — no similarity
        recompute) and the new pool's Gram is derived by the closed-form
        post-CrossAggr transform, keeping ``middleware_similarity``
        data-free too.

        The blend itself routes through the configured aggregation
        operator (``FLConfig.aggregator``): ``mean`` delegates straight
        to :meth:`~repro.core.pool.PoolBuffer.cross_aggregate` (bitwise
        the reference path); robust operators reject uploads outside
        their trust region first, degrading each rejected slot to its
        dispatched middleware state (the fault engine's carry).  The closed-form Gram transform is
        only valid for the linear mean blend, so non-linear operators
        drop the pool Gram and the diagnostic falls back to a fresh
        tracker.
        """
        k = len(self._pool)
        uploaded = self.uploads  # packed in model order by collect()
        alpha = self.alpha_at(self.round_idx)
        tracker = self._round_tracker(uploaded)
        if self.screen is not None:
            self.screen_uploads(uploaded, active, plans, tracker)
        gram = None
        if tracker is not None:
            # Gram final: flushed, and its row image gone before the
            # blend.  Read only now — the quarantine above is the
            # round's last writer, and a deferred tracker (distributed
            # storage) recomputes marked rows when it is read.
            tracker.release()
            gram = tracker.gram
        # The closed-form post-CrossAggr Gram transform models the
        # linear blend exactly; robust operators bend flagged rows, so
        # their output Gram must be recomputed from data when needed.
        track = tracker is not None and self.aggregator.linear
        # CrossAggr consumes the uploads: it blends in place into their
        # buffer, which becomes the pool, and the old pool becomes the
        # next round's upload buffer (a storage that cannot blend in
        # place hands back a fresh pool, and the uploads stay put).
        old = self._pool
        if k == 1:
            co = np.zeros(1, dtype=np.int64)
            pool = uploaded  # no collaborator: the lone upload is the pool
            derived = (
                GramTracker(pool, param_keys=self.selector.param_keys, gram=gram)
                if tracker is not None
                else None
            )
        else:
            if self._use_propellers(self.round_idx):
                co = propeller_index_matrix(self.round_idx, k, self.num_propellers)
            else:
                co = self.selector.select_all(uploaded, self.round_idx, gram=gram)
            pool = self.aggregator.cross_blend(uploaded, co, alpha, fallback=old, out=uploaded)
            derived = tracker.cross_aggregated(co, alpha, pool=pool) if track else None
        self._pool, self._pool_gram = pool, derived
        if pool is uploaded:
            self._recycle_round_uploads(old)
        co_indices = co[:, 0] if co.ndim == 2 else co
        self.charge_round_communication(active)
        return {
            "train_loss": self.mean_local_loss(results),
            "alpha": alpha,
            "co_indices": [int(j) for j in co_indices],
        }

    def finalize_fit(self, history: TrainingHistory) -> None:
        # Surface the converged pool's similarity structure (the paper's
        # "middleware models grow similar" narrative) on the result.
        # Runs before callback on_fit_end hooks, so a checkpointer's
        # best-state restore (which broadcasts one state over the pool)
        # cannot flatten the diagnostic to all-ones first.
        self.result_extras["middleware_similarity"] = self.middleware_similarity()

    # -- deployment --------------------------------------------------------------
    def global_row(self) -> np.ndarray:
        """Line 17: deployment-only global model (GlobalModelGen), a row.

        Routed through the configured aggregation operator: ``mean``
        is the paper's uniform pool average; robust operators deploy
        their robust center instead, so a poisoned middleware row
        cannot steer the deployed model even when it slipped past
        screening.

        Under the overlapped async schedule the live pool mixes rows
        from several in-flight rounds; evaluation must reflect the
        newest *completed* round exactly, so the adapter caches that
        round's reconciled pool average here and the cache wins.
        """
        if self._async_eval_row is not None:
            return self._async_eval_row
        return self.aggregator.combine(self._pool)

    def async_adapter(self) -> "FedCrossAsyncAdapter":
        """Speculative cross-aggregation seam for ``round_mode='async'``."""
        return FedCrossAsyncAdapter(self)

    def _install_global_row(self, row: np.ndarray) -> None:
        """Reset the whole pool to the checked ``row`` (checkpoint restore).

        The deployable model is the uniform pool average, so restoring a
        checkpoint broadcasts it back over all K middleware rows —
        exactly Algorithm 1's line-2 initialisation from a shared state.
        """
        self._pool = PoolBuffer.broadcast(
            self._layout, row, len(self._pool), backend=self.backend,
            backend_options=self.row_options,
        )
        self._pool_gram = None  # pool replaced outside the tracked flow

    def middleware_similarity(self) -> np.ndarray:
        """Pairwise cosine similarity of the current pool (diagnostic).

        The paper argues middleware models grow increasingly similar
        over training; the integration tests assert this trend.  When
        the incremental Gram engine followed this pool through the
        round (cosine-selection runs), this is pure ``(K, K)`` algebra
        on the closed-form post-CrossAggr Gram — within documented ulp
        tolerance of a fresh recompute (see :mod:`repro.core.gram`);
        otherwise a fresh tracker's Gram, whose dots run where the rows
        live (on the hosts, for ``distributed`` storage).
        """
        tracker = self._pool_gram
        if tracker is None or tracker.pool is not self._pool:
            tracker = GramTracker.from_pool(self._pool, self.selector.param_keys)
        return tracker.similarity()

    def pool_dispersion(self) -> float:
        """RMS distance of pool members from their mean (diagnostic).

        The cancellation-safe streamed recompute
        (:meth:`~repro.core.pool.PoolBuffer.dispersion`): a Gram-sum
        recovery would cancel on a converged pool.
        """
        return self._pool.dispersion(param_keys=self.selector.param_keys)


class _AsyncRoundCtx:
    """Per-round state of the speculative CrossAggr (one per window slot)."""

    __slots__ = (
        "t", "uploads", "alpha", "tracker", "landed", "co_spec",
        "stale_rows", "spec_blends", "reblends", "stale_skips",
    )

    def __init__(self, t: int, uploads: PoolBuffer, alpha: float, tracker) -> None:
        self.t = t
        self.uploads = uploads
        self.alpha = alpha
        self.tracker = tracker
        self.landed: set[int] = set()
        self.co_spec: dict[int, int] = {}  # row -> last speculative co
        self.stale_rows: set[int] = set()
        self.spec_blends = 0
        self.reblends = 0
        self.stale_skips = 0


class FedCrossAsyncAdapter:
    """Speculative cross-aggregation under the overlapped round driver.

    As each upload of round ``t`` lands, collaborators are selected
    among the round's *already landed* rows on the live per-upload
    :class:`~repro.core.gram.GramTracker` (pairwise dots within the
    landed set are always fresh) and the blend is written straight into
    the live pool row — so a client picking up its round ``t+1`` leg
    trains from the freshest speculative pool available.  At round
    completion the exact reference CrossAggr runs over the full upload
    buffer (bit-identical bytes to the sync blend), reconciling every
    speculative choice; the mismatch count is the measured wasted work.

    Bounded staleness: every pool row remembers the last round that
    blended it (``row_version``).  A round never writes a row a *newer*
    round already owns — such late uploads are discarded for pool
    purposes and counted as ``stale_uploads``.

    Its products are refused before any round runs — screening and
    non-linear operators by :data:`repro.fl.config.RULES`, propeller
    warm-up where :class:`FedCrossServer` parses its options.  Euclidean
    similarity disables *speculation* only (no tracked Gram to select
    on); the completion reconcile still runs the fresh recompute.
    """

    def __init__(self, server: FedCrossServer) -> None:
        self.server = server
        self.k = len(server._pool)
        # Resume-safe: rows dispatched before any async round completes
        # are exactly (t - 1)-fresh for the first created round t.
        self.row_version = [server.round_idx - 1] * self.k
        self._last_eval_pool: PoolBuffer | None = None

    # -- scheduler-facing API ----------------------------------------------
    def plan_row(self, row: int) -> np.ndarray:
        """Private copy of pool row ``row`` (speculation-race safe), where
        the server's legs can read it."""
        return self.server._leg_row(self.server._pool.row(int(row)))

    def version_of(self, row: int) -> int:
        return self.row_version[int(row)]

    def begin_round(self, t: int, uploads: PoolBuffer) -> _AsyncRoundCtx:
        server = self.server
        tracker = server._upload_tracker(uploads) if server._track_gram else None
        return _AsyncRoundCtx(t, uploads, server.alpha_at(t), tracker)

    def upload_landed(self, ctx: _AsyncRoundCtx, row: int) -> None:
        ctx.landed.add(int(row))
        self._speculate(ctx)

    # -- speculative blend ---------------------------------------------------
    def _spec_co(self, ctx: _AsyncRoundCtx, i: int) -> int | None:
        """Speculative collaborator for landed row ``i`` (or None yet)."""
        strategy = self.server.selector.strategy
        if strategy == "in_order":
            co = select_in_order(i, ctx.t, self.k)
            return co if (co == i or co in ctx.landed) else None
        if ctx.tracker is None:
            return None  # euclidean: no tracked Gram to speculate on
        return ctx.tracker.select_among(
            i, (j for j in ctx.landed if j != i), highest=(strategy == "highest")
        )

    def _blend_row(self, ctx: _AsyncRoundCtx, i: int, co: int) -> None:
        uploads = ctx.uploads
        blended = own = uploads.row(i)
        if co != i:
            blended = np.empty_like(own)
            blend_row(
                blended, own, uploads.row(co), float(ctx.alpha),
                np.flatnonzero(uploads.layout.integer_mask()),
                np.empty((2, own.size)),
            )
        self.server._pool.set_row(i, blended)
        self.server._pool_gram = None  # live pool moved under the tracker

    def _speculate(self, ctx: _AsyncRoundCtx) -> None:
        for i in sorted(ctx.landed):
            co = self._spec_co(ctx, i)
            if co is None or ctx.co_spec.get(i) == co:
                continue
            if self.row_version[i] > ctx.t:
                # A newer round already owns this pool row: blending a
                # late upload backwards would violate bounded staleness.
                if i not in ctx.stale_rows:
                    ctx.stale_rows.add(i)
                    ctx.stale_skips += 1
                continue
            if i in ctx.co_spec:
                ctx.reblends += 1
            else:
                ctx.spec_blends += 1
            self._blend_row(ctx, i, co)
            ctx.co_spec[i] = co
            self.row_version[i] = ctx.t

    # -- completion ----------------------------------------------------------
    def complete_round(self, ctx: _AsyncRoundCtx, active, results, plans) -> dict:
        server = self.server
        uploads = ctx.uploads
        if self.k == 1:
            co = np.zeros(1, dtype=np.int64)
            eval_pool = uploads.copy()
        else:
            gram = None
            if ctx.tracker is not None:
                ctx.tracker.release()  # Gram final; image gone before the blend
                gram = ctx.tracker.gram
            co = server.selector.select_all(uploads, ctx.t, gram=gram)
            # Exact reference CrossAggr over the complete upload buffer:
            # byte-identical to the sync blend of the same uploads.
            eval_pool = server.aggregator.cross_blend(
                uploads, co, ctx.alpha, fallback=None
            )
        fixes = sum(
            1 for i, spec in ctx.co_spec.items() if int(co[i]) != int(spec)
        )
        for i in range(self.k):
            if self.row_version[i] <= ctx.t:
                # Reconcile: the exact blended row replaces whatever the
                # speculative pass wrote.
                server._pool.set_row(i, eval_pool.row(i))
                self.row_version[i] = ctx.t
        server._pool_gram = None
        self._last_eval_pool = eval_pool
        # Evaluation (and checkpointing) must see the completed round's
        # reconciled pool, not the live pool mid-speculation.
        server._async_eval_row = server.aggregator.combine(eval_pool)
        return {
            "train_loss": server.mean_local_loss(results),
            "alpha": float(ctx.alpha),
            "co_indices": [int(j) for j in co],
            "async": {
                "speculative_blends": ctx.spec_blends,
                "speculative_reblends": ctx.reblends,
                "reconcile_fixes": fixes,
                "stale_uploads": ctx.stale_skips,
            },
        }

    def finalize(self) -> None:
        """Install the newest completed round's exact pool and drop caches."""
        server = self.server
        if self._last_eval_pool is not None:
            server._pool = self._last_eval_pool
            self._last_eval_pool = None
        server._async_eval_row = None
        server._pool_gram = None
