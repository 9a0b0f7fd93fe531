"""Round-collect wall clock: serial vs thread vs process execution.

The ``collect`` phase trains the round's K active clients; PR 3's
execution engine makes it parallel.  This benchmark times one FedCross
round-collect on the seed CNN for each execution backend at K ∈ {10,
50} (``--smoke``: one small K) and verifies the engine's core guarantee
on the same workload: **bit-identical training histories and final pool
matrices across all three backends**.

The asserted bar at the largest K (full runs only): ``process`` ≥ 3×
faster than ``serial`` on hosts with ≥ 4 usable cores; on 2–3 cores,
where ``serial`` already spreads its GEMMs over every core through
BLAS, ``process`` must keep up with it (≥ 0.8×; a 2-core host reads
1.0–1.1×) — each worker caps its BLAS pool at ``cores // workers``
threads (:mod:`repro.utils.cpu`), and the 0.6× an oversubscribed pool
gives here is the regression this catches.  A single-core host
reports the bar as skipped so CI boxes of any shape can run the
determinism check.

Run directly (not collected by the tier-1 pytest command)::

    PYTHONPATH=src python benchmarks/bench_client_execution.py           # full
    PYTHONPATH=src python benchmarks/bench_client_execution.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_client_execution.py --json    # trend

``--json`` prints one machine-readable object *and* writes it to
``BENCH_client_execution.json`` (see ``--json-out``), so every CI run
leaves a perf artifact and the trajectory is recorded per PR.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.fl.config import FLConfig
from repro.fl.simulation import FLSimulation
from repro.models.registry import build_model
from repro.optim import SGD
from repro.tensor import Tensor
from repro.tensor.functional import cross_entropy
from repro.utils.cpu import usable_cores

BACKENDS = ("serial", "thread", "process")
# process-vs-serial bar on 2-3 cores, halfway between what a 2-core
# host reads with the workers' BLAS pools capped (1.0-1.1x) and
# oversubscribed (0.6x).
SMALL_HOST_PARITY = 0.8


def make_config(k: int, input_size: int, execution: str, rounds: int = 2) -> FLConfig:
    return FLConfig(
        method="fedcross",
        dataset="synth_cifar10",
        model="cnn",
        heterogeneity=0.5,
        num_clients=k,
        participation=1.0,
        rounds=rounds,
        local_epochs=1,
        batch_size=20,
        eval_every=rounds,
        execution=execution,
        seed=0,
        dataset_params={
            "samples_per_client": 60,
            "num_test": 40,
            "image_shape": (3, input_size, input_size),
        },
        method_params={"alpha": 0.99},
    )


def time_collect(config: FLConfig, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one round-collect."""
    sim = FLSimulation(config)
    server = sim.server
    active = server.select_cohort()
    # Warm-up: spins up worker pools / shared buffers and faults in the
    # first dispatch, so the timed runs measure steady-state rounds.
    server.collect(active, server.dispatch(active))
    best = float("inf")
    for _ in range(repeats):
        plans = server.dispatch(active)
        start = time.perf_counter()
        server.collect(active, plans)
        best = min(best, time.perf_counter() - start)
    server.executor.close()
    return best


def histories_bit_identical(k: int, input_size: int, emit) -> bool:
    """Two full rounds per backend: records + pool must match the
    serial reference exactly."""
    results = {}
    for execution in BACKENDS:
        sim = FLSimulation(make_config(k, input_size, execution))
        result = sim.run()
        results[execution] = (result, np.array(sim.server.pool.matrix, copy=True))
    ref_result, ref_pool = results["serial"]
    ok = True
    for execution in BACKENDS[1:]:
        got_result, got_pool = results[execution]
        same = all(
            a.accuracy == b.accuracy
            and a.loss == b.loss
            and a.train_loss == b.train_loss
            for a, b in zip(ref_result.history.records, got_result.history.records)
        ) and np.array_equal(ref_pool, got_pool)
        emit(f"  determinism serial vs {execution:>8} @ K={k}: "
             f"{'bit-identical' if same else 'DIVERGED'}")
        ok = ok and same
    return ok


# ----------------------------------------------------------------------
# Async bounded-staleness rounds vs sync under seeded stragglers (ISSUE 10)
# ----------------------------------------------------------------------
def make_async_config(
    k: int, rounds: int, round_mode: str, staleness: int
) -> FLConfig:
    """Cheap-compute FedCross fit for the round-schedule comparison.

    The MLP keeps per-leg compute small so the injected straggler
    sleeps dominate wall clock — the regime the async schedule exists
    for — and ``workers=k`` lets every leg of a round run concurrently
    on the thread backend (the straggler cost is then purely the
    schedule's, not a worker-queue artifact).
    """
    return FLConfig(
        method="fedcross",
        dataset="synth_cifar10",
        model="mlp",
        heterogeneity=0.5,
        num_clients=k,
        participation=1.0,
        rounds=rounds,
        local_epochs=1,
        batch_size=16,
        eval_every=rounds,
        execution="thread",
        workers=k,
        seed=0,
        round_mode=round_mode,
        max_staleness=staleness,
        dataset_params={"samples_per_client": 20, "num_test": 20},
        method_params={"alpha": 0.99},
    )


def _attach_stragglers(sim, base_delay: float, fault_seed: int) -> None:
    """Seeded wall-clock stragglers: PR 8's fault model decides *which*
    legs are slow (slow_prob=0.3, slow_factor=4), a ``DelaySpec`` makes
    them slow for real.  Keyed on (round, client) through the seeded
    stream, so the sync and async fits hit identical delay patterns.

    The fault seed is chosen so stragglers hit *different* clients in
    *different* rounds — the regime where the schedules diverge.  Sync
    pays the sum of per-round maxima (every round barriers on its
    slowest leg); async pays at best the max of per-client sums (each
    client proceeds at its own pace within the staleness window).  A
    seed that piles every slow leg into one round makes the two bounds
    equal and measures nothing.
    """
    from repro.faults import ClientPopulation
    from repro.faults.inject import DelaySpec

    server = sim.server
    pop = ClientPopulation(
        {"slow_prob": 0.3, "slow_factor": 4.0},
        seed=fault_seed,
        num_clients=server.config.num_clients,
    )
    original = server.dispatch

    def dispatch(active):
        plans = original(active)
        for client, plan in zip(active, plans):
            speed = pop.leg_fault(server.round_idx, client.client_id).speed
            if speed > 1.0:
                plan.loss_hook = DelaySpec(
                    seconds=(speed - 1.0) * base_delay, once=True
                )
        return plans

    server.dispatch = dispatch


def _time_fit(config: FLConfig, base_delay: float, fault_seed: int,
              repeats: int):
    """Best-of-``repeats`` full-fit wall time plus the last run's history."""
    best, result = float("inf"), None
    for _ in range(repeats):
        sim = FLSimulation(config)
        _attach_stragglers(sim, base_delay, fault_seed)
        start = time.perf_counter()
        result = sim.run()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_async_rounds(repeats: int, cores: int, smoke: bool,
                     max_async_ratio: float, emit):
    """Async bounded-staleness schedule vs sync under seeded stragglers.

    Whole fits (not single rounds): the async win is *cross-round* —
    round t+1 legs start while round t stragglers sleep — so only a
    multi-round wall clock can see it.  The asserted bar, async
    wall-clock ≤ ``max_async_ratio`` × sync at S>0, applies to full
    runs on ≥ 4 cores (on fewer cores training serialises behind the
    GIL and the overlap is partly an artifact of sleep scheduling;
    smoke timings are jitter-bound).  Wasted speculation is reported
    alongside: the fraction of speculative blends the completion
    reconcile had to redo or overwrite (``wasted_frac``).
    """
    if smoke:
        k, rounds, base_delay, fault_seed = 4, 4, 0.05, 7
    else:
        k, rounds, base_delay, fault_seed = 8, 4, 0.15, 11
    sync_s, _ = _time_fit(
        make_async_config(k, rounds, "sync", 0), base_delay, fault_seed,
        repeats,
    )
    emit(f"{'K':>4} {'mode':>10} {'S':>3} {'fit (s)':>9} {'ratio':>7} "
         f"{'spec':>6} {'wasted':>7} {'stale':>6}")
    emit(f"{k:>4} {'sync':>10} {'-':>3} {sync_s:>9.3f} {'1.00x':>7} "
         f"{'-':>6} {'-':>7} {'-':>6}")
    rows = []
    failures = []
    for staleness in (1, 2):
        async_s, result = _time_fit(
            make_async_config(k, rounds, "async", staleness),
            base_delay, fault_seed, repeats,
        )
        infos = [
            r.extras.get("async", {}) for r in result.history.records
        ]
        spec = sum(i.get("speculative_blends", 0) for i in infos)
        redone = sum(
            i.get("speculative_reblends", 0) + i.get("reconcile_fixes", 0)
            for i in infos
        )
        stale = sum(i.get("stale_uploads", 0) for i in infos)
        wasted = redone / max(1, spec)
        ratio = async_s / sync_s
        emit(f"{k:>4} {'async':>10} {staleness:>3} {async_s:>9.3f} "
             f"{ratio:>6.2f}x {spec:>6} {wasted:>6.2f} {stale:>6}")
        rows.append(
            {
                "k": k,
                "staleness": staleness,
                "sync_s": sync_s,
                "async_s": async_s,
                "ratio": ratio,
                "speculative_blends": spec,
                "wasted_frac": wasted,
                "stale_uploads": stale,
            }
        )
        if not smoke:
            if cores >= 4:
                if ratio > max_async_ratio:
                    failures.append(
                        f"S={staleness}: async fit {ratio:.2f}x sync under "
                        f"seeded stragglers (bar: <= {max_async_ratio}x)"
                    )
            else:
                emit(f"  (async bar skipped: {cores} cores < 4 — training "
                     "serialises, overlap is scheduling noise)")
    return rows, failures


# ----------------------------------------------------------------------
# Array-backend dispatch overhead (ISSUE 6)
# ----------------------------------------------------------------------
def _direct_cnn_step(params, bufs, x, y, lr, momentum):
    """Raw-numpy replica of one FedAvgCNN client step.

    Mirrors the tensor stack's lowering op for op without the dispatch
    layer (same strided-window im2col copies, same three GEMMs on the same
    operand layouts, same slice-add col2im, same reshape-based pool fast
    path, same float32 rounding points, same in-place SGD), so its
    updated parameters are **bit-identical** to the dispatched stack's —
    verified by :func:`run_backend_dispatch` before any timing is
    trusted — and its wall clock is the true zero-dispatch baseline.
    Batches of more than one sample only (the stack's batch-of-one
    operand layout is not replicated).
    """

    def acc(g):
        """``Tensor._accumulate``: every node's gradient is copied once."""
        return g.astype(g.dtype, copy=True)

    def conv_fwd(inp, w, b, padding):
        n, c_in = inp.shape[:2]
        c_out, _, kh, kw = w.shape
        x_pad = np.pad(inp, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        hp, wp = x_pad.shape[2:]
        out_h, out_w = hp - kh + 1, wp - kw + 1
        s_n, s_c, s_h, s_w = x_pad.strides
        windows = np.lib.stride_tricks.as_strided(
            x_pad, (n, out_h, out_w, c_in, kh, kw), (s_n, s_h, s_w, s_c, s_h, s_w),
            writeable=False,
        )
        cols = windows.copy().reshape(n * out_h * out_w, c_in * kh * kw)
        w_mat = w.reshape(c_out, -1)
        out_mat = cols @ w_mat.T
        out_mat += b
        out = out_mat.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
        return out, (x_pad.shape, windows, w_mat, (out_h, out_w, kh, kw), padding)

    def conv_bwd(g, w, cache, input_grad=True):
        (n, c_in, hp, wp), windows, w_mat, (out_h, out_w, kh, kw), padding = cache
        g_mat = g.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, -1)
        cols_t = windows.transpose(3, 4, 5, 0, 1, 2).copy().reshape(w_mat.shape[1], -1)
        grad_w = (cols_t @ g_mat).T.reshape(w.shape)
        grad_b = g.sum(axis=(0, 2, 3))
        if not input_grad:  # the network input requires no gradient
            return None, grad_w, grad_b
        grad_cols = (g_mat @ w_mat).reshape(n, out_h, out_w, c_in, kh, kw)
        grad_pad = np.zeros((n, c_in, hp, wp), dtype=g.dtype)
        for oy in reversed(range(out_h)):
            for j in range(kw):
                grad_pad[:, :, oy : oy + kh, j : j + out_w] += grad_cols[
                    :, oy, :, :, :, j
                ].transpose(0, 2, 3, 1)
        if padding:
            grad_pad = grad_pad[:, :, padding:-padding, padding:-padding]
        return acc(grad_pad), grad_w, grad_b

    def pool_fwd(inp):
        n, c, h, w = inp.shape
        r = inp.reshape(n, c, h // 2, 2, w // 2, 2)
        out = r.max(axis=(3, 5))
        mask = (r == out[:, :, :, None, :, None]).astype(inp.dtype)
        counts = mask.sum(axis=(3, 5), keepdims=True)
        return out, (mask, counts, (n, c, h, w))

    def pool_bwd(g, cache):
        mask, counts, shape = cache
        return acc(((mask / counts) * g[:, :, :, None, :, None]).reshape(shape))

    def relu_fwd(pre):
        mask = pre > 0
        return np.where(mask, pre, 0.0).astype(pre.dtype, copy=False), mask

    nb = x.shape[0]
    w1, b1, w2, b2, wf1, bf1, wf2, bf2 = params

    # forward
    c1, c1_cache = conv_fwd(x, w1, b1, padding=2)
    r1, r1_mask = relu_fwd(c1)
    p1, p1_cache = pool_fwd(r1)
    c2, c2_cache = conv_fwd(p1, w2, b2, padding=2)
    r2, r2_mask = relu_fwd(c2)
    p2, p2_cache = pool_fwd(r2)
    flat = p2.reshape(nb, -1)
    h1 = flat @ wf1.transpose((1, 0)) + bf1
    a1, a1_mask = relu_fwd(h1)
    logits = a1 @ wf2.transpose((1, 0)) + bf2

    # loss (log-softmax + mean NLL)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    softmax_vals = np.exp(log_probs)
    rows = np.arange(nb)
    loss = -log_probs[rows, y].mean()

    # backward
    g_lp = np.zeros_like(log_probs)
    g_lp[rows, y] = -1.0 * (1.0 / nb)
    g_logits = (g_lp - softmax_vals * g_lp.sum(axis=-1, keepdims=True)).astype(
        logits.dtype, copy=True
    )
    g_bf2 = g_logits.sum(axis=0)
    g_wf2 = (a1.transpose((1, 0)) @ g_logits).transpose((1, 0))
    g_a1 = acc(g_logits @ wf2)
    g_h1 = acc(g_a1 * a1_mask)
    g_bf1 = g_h1.sum(axis=0)
    g_wf1 = (flat.transpose((1, 0)) @ g_h1).transpose((1, 0))
    g_flat = acc(g_h1 @ wf1)
    g_p2 = acc(g_flat.reshape(p2.shape))
    g_r2 = pool_bwd(g_p2, p2_cache)
    g_c2 = acc(g_r2 * r2_mask)
    g_p1, g_w2, g_b2 = conv_bwd(g_c2, w2, c2_cache)
    g_r1 = pool_bwd(g_p1, p1_cache)
    g_c1 = acc(g_r1 * r1_mask)
    _, g_w1, g_b1 = conv_bwd(g_c1, w1, c1_cache, input_grad=False)

    # SGD with momentum (the trainer's in-place update; ``bufs`` holds a
    # (momentum buffer, scratch) pair per parameter once stepped)
    grads = [g_w1, g_b1, g_w2, g_b2, g_wf1, g_bf1, g_wf2, g_bf2]
    for idx, (p, g) in enumerate(zip(params, grads)):
        g = g.astype(p.dtype, copy=True)
        buf, scratch = bufs[idx] or (None, None)
        if momentum:
            if buf is None:
                buf = g.copy(order="K")
            else:
                buf *= momentum
                buf += g
            g = buf
        if scratch is None:
            scratch = g.copy(order="K")
        else:
            scratch[...] = g
        scratch *= lr
        p -= scratch
        bufs[idx] = (buf, scratch)
    return float(loss)


_PARAM_KEYS = (
    "conv1.weight", "conv1.bias", "conv2.weight", "conv2.bias",
    "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias",
)


def run_backend_dispatch(smoke: bool, repeats: int, max_overhead: float, emit):
    """Seed-direct vs dispatched-numpy client step (ISSUE 6 tentpole).

    Times one FedAvgCNN forward/loss/backward/SGD step through the
    array-backend dispatch layer (the only path since the refactor)
    against :func:`_direct_cnn_step`, a raw-numpy replica of the seed's
    pre-dispatch op sequence.  Bit-identical parameter updates between
    the two legs are asserted first; the dispatch overhead bar
    (``ratio <= 1 + max_overhead``) gates full runs only — a smoke step
    is a sub-millisecond micro-timing, pure jitter on shared runners.
    """
    if smoke:
        model_name, input_size, batch, inner = "cnn_s", 8, 16, 10
    else:
        model_name, input_size, batch, inner = "cnn", 16, 50, 5
    lr, momentum = 0.01, 0.5

    def fresh_legs():
        model = build_model(
            model_name, seed=0, input_shape=(3, input_size, input_size), num_classes=10
        )
        state = model.state_dict()
        params = [state[k].copy() for k in _PARAM_KEYS]
        return model, params

    rng = np.random.default_rng(42)
    x = rng.standard_normal((batch, 3, input_size, input_size)).astype(np.float32)
    y = rng.integers(0, 10, size=batch)

    def dispatched_step(model, optimizer):
        optimizer.zero_grad()
        loss = cross_entropy(model(Tensor(x)), y)
        loss.backward()
        optimizer.step()
        return float(loss.numpy())

    # Bit-identity: a few steps from shared init must land on the same
    # parameters — otherwise the "direct" leg times a different program.
    model, params = fresh_legs()
    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)
    bufs = [None] * len(params)
    identical = True
    for _ in range(3):
        dispatched_step(model, optimizer)
        _direct_cnn_step(params, bufs, x, y, lr, momentum)
    state = model.state_dict()
    for key, direct_p in zip(_PARAM_KEYS, params):
        if not np.array_equal(state[key], direct_p):
            identical = False
    failures = [] if identical else [
        "dispatched client step diverged from the seed-direct numpy replica"
    ]

    def best_per_step(step, *step_args):
        best = float("inf")
        step(*step_args)  # warm-up
        for _ in range(max(repeats, 2)):
            start = time.perf_counter()
            for _ in range(inner):
                step(*step_args)
            best = min(best, (time.perf_counter() - start) / inner)
        return best

    model, params = fresh_legs()
    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)
    bufs = [None] * len(params)
    direct_s = best_per_step(_direct_cnn_step, params, bufs, x, y, lr, momentum)
    dispatched_s = best_per_step(dispatched_step, model, optimizer)
    ratio = dispatched_s / direct_s

    emit(f"{'model':>8} {'batch':>6} {'direct (ms)':>12} {'dispatched (ms)':>16} "
         f"{'ratio':>7} {'bit-identical':>14}")
    emit(f"{model_name:>8} {batch:>6} {direct_s * 1e3:>12.3f} "
         f"{dispatched_s * 1e3:>16.3f} {ratio:>6.2f}x {str(identical):>14}")
    if not smoke and ratio > 1.0 + max_overhead:
        failures.append(
            f"array-backend dispatch overhead {ratio:.3f}x direct numpy "
            f"(bar: <= {1.0 + max_overhead:.2f}x)"
        )
    elif smoke:
        emit("  (overhead bar skipped in smoke mode: sub-ms step, jitter-bound)")
    rows = [
        {
            "model": model_name,
            "batch": batch,
            "direct_s": direct_s,
            "dispatched_s": dispatched_s,
            "ratio": ratio,
            "bit_identical": identical,
        }
    ]
    return rows, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small K / tiny CNN; determinism check + timing without bars",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON object (stdout + artifact file)",
    )
    parser.add_argument(
        "--json-out",
        default="BENCH_client_execution.json",
        help="artifact path written when --json is given",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="process-vs-serial bar at the largest K (hosts with >= 4 cores)",
    )
    parser.add_argument(
        "--max-dispatch-overhead",
        type=float,
        default=0.05,
        help=(
            "array-backend dispatch overhead bar: dispatched client step "
            "<= (1 + this) x the seed-direct numpy replica (full runs only)"
        ),
    )
    parser.add_argument(
        "--max-async-ratio",
        type=float,
        default=0.7,
        help=(
            "async-vs-sync fit wall-clock bar at S > 0 under seeded "
            "stragglers (full runs on >= 4 cores only)"
        ),
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    emit = (lambda line: None) if args.json else print
    cores = usable_cores()

    if args.smoke:
        ks, input_size = (4,), 8
    else:
        ks, input_size = (10, 50), 16

    emit(f"seed CNN input {input_size}x{input_size}, {cores} cores, "
         f"repeats={args.repeats}")
    emit(f"{'K':>4} {'serial (s)':>12} {'thread (s)':>12} {'process (s)':>12} "
         f"{'thr x':>7} {'proc x':>7}")

    rows = []
    failures = []
    for k in ks:
        timings = {
            execution: time_collect(make_config(k, input_size, execution), args.repeats)
            for execution in BACKENDS
        }
        thr_x = timings["serial"] / timings["thread"]
        proc_x = timings["serial"] / timings["process"]
        emit(
            f"{k:>4} {timings['serial']:>12.3f} {timings['thread']:>12.3f} "
            f"{timings['process']:>12.3f} {thr_x:>6.2f}x {proc_x:>6.2f}x"
        )
        rows.append(
            {
                "k": k,
                "serial_s": timings["serial"],
                "thread_s": timings["thread"],
                "process_s": timings["process"],
                "thread_speedup": thr_x,
                "process_speedup": proc_x,
            }
        )
        if k == max(ks) and not args.smoke:
            bar = args.min_speedup if cores >= 4 else SMALL_HOST_PARITY
            if cores < 2:
                emit(
                    "  (speedup bar skipped: 1 usable core — nowhere to run "
                    "legs side by side)"
                )
            elif proc_x < bar:
                failures.append(
                    f"K={k}: process speedup {proc_x:.2f}x below the "
                    f"{bar}x bar on a {cores}-core host"
                )

    emit("\n== cross-backend determinism (serial reference) ==")
    deterministic = histories_bit_identical(min(ks), input_size, emit)
    if not deterministic:
        failures.append("histories/pools diverged across execution backends")

    emit("\n== array-backend dispatch overhead (seed-direct vs dispatched) ==")
    dispatch_rows, dispatch_failures = run_backend_dispatch(
        args.smoke, args.repeats, args.max_dispatch_overhead, emit
    )
    failures += dispatch_failures

    emit("\n== async bounded-staleness rounds vs sync (seeded stragglers) ==")
    async_rows, async_failures = run_async_rounds(
        args.repeats, cores, args.smoke, args.max_async_ratio, emit
    )
    failures += async_failures

    payload = {
        "cores": cores,
        "input_size": input_size,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "collect": rows,
        "backend_dispatch": dispatch_rows,
        "async_rounds": async_rows,
        "deterministic": deterministic,
        "failures": failures,
    }
    if args.json:
        blob = json.dumps(payload)
        print(blob)
        with open(args.json_out, "w") as fh:
            fh.write(blob + "\n")
    if failures:
        print("PERF REGRESSION: " + "; ".join(failures), file=sys.stderr)
        return 1
    emit("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
