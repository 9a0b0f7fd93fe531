"""Metrics, correctness gates and the environment record.

Pure functions over the JSON records ``child.py`` prints (and, for the
per-layer numbers, over its spans), so the unit tests can feed them
hand-made inputs.  Names, units, directions and bounds of the gated
metrics live in ``BENCHMARK.json``; this file only computes values.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

import trace as tracing

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc hands freed blocks back to the kernel; on a VM with free page
# reporting the hypervisor then reclaims them within ~2 s and the next
# touch costs 3-40 ms/MB, drifting by the minute (README, "Estimator").
# Keeping freed memory in the process takes that lottery out of the
# timings; workers and shard hosts inherit it.
ALLOCATOR_POLICY = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}

# Reported by the full harness next to the gated end-to-end metrics but
# not gated by the driver, which runs ten *different* seeds: these vary
# with the seed (accuracy, target) or with the minute (first-round page
# faults) by more than any bound could hide, or are 0 on a healthy run.
# --check-repeat holds them to these bounds on a fixed seed; ``None``
# means reported only, and overlapped rounds are not bit-repeatable so
# the async workload gets a tolerance where the sync ones are exact.
UNGATED = {
    "first_round_s": {"unit": "s", "better": "lower", "bound": None},
    "time_to_target_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "rounds_to_target": {"unit": "count", "better": "lower", "bound": 0.0, "async_bound": 0.25},
    "final_accuracy": {"unit": "fraction", "better": "higher", "bound": 0.0, "async_bound": 0.1},
    "failed_share": {"unit": "fraction", "better": "lower", "bound": 0.0},
}
# Best-of-repeats, because the host's noise is one-sided (slow minutes);
# the rest are exact counts or medians.
BEST_OF = {"fit_s": min, "first_round_s": min, "time_to_target_s": min,
           "updates_per_s": max}
UNEXPECTED_FAILURES = ("error", "timeout")


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


# -- end-to-end ---------------------------------------------------------------
def time_to_target(round_ends, accuracies, target):
    """``(seconds, rounds)`` to the first evaluated accuracy ≥ ``target``.

    ``(None, None)`` when the target is never reached — the caller
    counts that as one failed operation.
    """
    for index, accuracy in enumerate(accuracies):
        if accuracy is not None and accuracy >= target:
            return round_ends[index], index
    return None, None


def fresh_uploads(fit: dict) -> int:
    """Uploads that were blended: K × rounds − failed/carried − stale."""
    legs = fit["k"] * len(fit["round_ends"])
    return legs - len(fit["leg_failures"]) - fit["async"].get("stale_uploads", 0)


def round_intervals(round_ends, in_flight: int = 1) -> list[float]:
    """Per-round time between ``on_round_end`` callbacks, round 0 excluded.

    Overlapped rounds complete in bursts (``in_flight`` rounds share one
    straggler), so their raw intervals are bimodal and a median over them
    flips between the modes; averaging each interval over a window of
    ``in_flight`` rounds gives the same per-round figure without that.
    On the sync workloads the window is one round: the plain interval.
    A fit shorter than the window (``--smoke``) uses what it has.
    """
    w = max(1, min(in_flight, len(round_ends) - 1))
    return [(b - a) / w for a, b in zip(round_ends, round_ends[w:])]


def fit_metrics(workload, fit: dict) -> dict:
    """End-to-end values of one ``fit()`` record."""
    ends = fit["round_ends"]
    seconds, rounds = time_to_target(ends, fit["accuracies"], workload.target)
    return {
        "fit_s": fit["fit_s"],
        "first_round_s": ends[0],
        "round_intervals": round_intervals(ends, workload.rounds_in_flight),
        "updates_per_s": fresh_uploads(fit) / fit["fit_s"],
        "time_to_target_s": seconds,
        "rounds_to_target": rounds,
        "final_accuracy": fit["accuracies"][-1],
        "peak_rss_mb": fit["peak_rss_mb"],
        "comm_params_per_round": (sum(fit["comm_up"]) + sum(fit["comm_down"])) / len(ends),
    }


def end_to_end(workload, fits: list[dict], setups: list[float]) -> dict:
    """Combine the repeats of one workload into its end-to-end metrics.

    Timings take the best repeat, ``round_s_p50`` the median round
    interval pooled over repeats, ``setup_s`` the median set-up,
    everything else the first repeat (the gates demand that the exact
    ones repeat).
    """
    per_fit = [fit_metrics(workload, fit) for fit in fits]
    out = {"setup_s": statistics.median(setups)}
    for name, value in per_fit[0].items():
        if name == "round_intervals":
            continue
        values = [m[name] for m in per_fit]
        if name in BEST_OF and None not in values:
            value = BEST_OF[name](values)
        out[name] = value
    pooled = [x for m in per_fit for x in m["round_intervals"]]
    out["round_s_p50"] = statistics.median(pooled)
    out["round_samples"] = len(pooled)
    return out


# -- correctness gates ----------------------------------------------------------
def _same_outputs(a: dict, b: dict) -> bool:
    return (
        a["pool_sha256"] == b["pool_sha256"]
        and a["accuracies"] == b["accuracies"]
        and a["losses"] == b["losses"]
    )


def gates(workload, fits: list[dict], reference: dict | None = None,
          curated_seed: bool = False) -> list[tuple]:
    """Correctness checks as ``(name, ok, detail)`` triples.

    ``curated_seed`` adds the checks that only hold on seeds somebody
    looked at (the accuracy floor: after this few rounds some seeds end
    below chance with or without an attack).
    """
    checks = []
    first = fits[0]
    rounds = len(first["round_ends"])
    checks.append((
        "rounds_recorded",
        all(len(f["accuracies"]) == f["rounds"] == len(f["round_ends"]) for f in fits),
        f"{rounds} of {first['rounds']} rounds recorded and evaluated",
    ))
    if workload.sync:
        for other in fits[1:]:
            checks.append((
                "repeat_identical", _same_outputs(first, other),
                "accuracy history and final-pool SHA-256 identical across repeats",
            ))
        if reference is not None:
            checks.append((
                "reference_identical", _same_outputs(first, reference),
                f"final pool and history equal the reference run "
                f"({workload.reference or 'same config'})",
            ))
    else:
        # Overlapped rounds are not bit-repeatable (landing order is
        # wall-clock), so the gate is the ledger's structure: every
        # dispatched leg landed exactly once, and each landed upload was
        # either blended (first speculative blend of its row) or
        # discarded as stale — a row can be both, never neither.
        info = first["async"]
        stale = info.get("stale_uploads", 0)
        landed = sum(first["comm_up"]) // first["model_size"]
        expected = first["k"] * rounds - len(first["leg_failures"])
        checks.append((
            "async_accounting",
            landed == expected
            and 0 <= stale <= landed
            and info.get("speculative_blends", 0) + stale >= landed,
            f"landed {landed} == dispatched {expected}; blended {landed - stale} + "
            f"stale {stale} == landed",
        ))
    if workload.fault_free:
        analytic = 2 * first["k"] * first["model_size"] * rounds
        total = sum(first["comm_up"]) + sum(first["comm_down"])
        checks.append((
            "ledger_equals_analytic", total == analytic,
            f"ledger {total} == analytic_round_cost x rounds {analytic}",
        ))
    if workload.floor is not None:
        # Holds on every seed tried (12 of 12), and fails without the
        # robust layer: under the same attack the plain mean's test loss
        # *rises* from round 0 on.
        losses = first["losses"]
        checks.append((
            "robust_progress", losses[-1] < losses[0],
            f"test loss fell under attack: {losses[0]:.4f} -> {losses[-1]:.4f}",
        ))
        if curated_seed:
            checks.append((
                "accuracy_floor", first["accuracies"][-1] >= workload.floor,
                f"final accuracy {first['accuracies'][-1]:.4f} >= floor {workload.floor}",
            ))
    for fit in fits + ([reference] if reference else []):
        leaks = fit["leaks"]
        checks.append((
            "teardown_clean", not any(leaks.values()),
            f"after teardown: shm {leaks['shm']}, children {leaks['children']}, "
            f"sockets {leaks['sockets']}",
        ))
    return checks


def tally(fits: list[dict], checks: list[tuple], crashed: int, runs: int,
          target_missed: bool) -> tuple[int, int]:
    """``(attempted, failed)`` operations: runs + checks + legs."""
    legs = sum(f["k"] * len(f["round_ends"]) for f in fits)
    unexpected = sum(
        1 for f in fits for failure in f["leg_failures"]
        if failure["kind"] in UNEXPECTED_FAILURES
    )
    attempted = runs + len(checks) + legs + 1  # + the target
    failed = crashed + sum(1 for _n, ok, _d in checks if not ok) + unexpected
    return attempted, failed + (1 if target_missed else 0)


# -- per-layer ------------------------------------------------------------------
TIMED = (
    "setup.import", "setup.data", "setup.model", "setup.server",
    "fl.scheduler.round",
    "fl.server.select", "fl.server.dispatch", "fl.server.collect",
    "fl.server.aggregate", "fl.server.evaluate", "fl.server.finalize",
    "fl.execution.submit", "fl.execution.wait", "fl.execution.close",
    "fl.trainer.train", "nn.forward", "tensor.backward", "optim.step",
    "tensor.cross_entropy",
    "core.gram.update_row", "core.gram.cross_aggregated", "core.selection.select_all",
    "core.pool.cross_aggregate", "core.pool.mean_state", "core.pool.set_state",
    "robust.operators.cross_blend", "robust.operators.combine", "robust.screen.scores",
    "faults.engine.collect",
    "distributed.cluster.broadcast", "distributed.cluster.spawn",
    "distributed.cluster.shutdown",
)
PHASES = ("fl.server.select", "fl.server.dispatch", "fl.server.collect",
          "fl.server.aggregate", "fl.server.evaluate", "fl.server.finalize")
_RPC = "distributed.rpc.op."


def layer_metrics(workload, fit: dict, spans, counts: dict) -> dict:
    """Per-layer metrics of one traced ``fit()`` record."""
    selfs = tracing.self_times(spans)
    out = {}
    for stem in TIMED:
        self_s, calls = selfs.get(stem, (0.0, 0))
        out[f"{stem}_s"] = self_s
        if not stem.startswith("setup."):
            out[f"{stem}.calls"] = calls
    rpc = [s for s in spans if s[1].startswith(_RPC)]
    out["distributed.rpc.call_s"] = sum(selfs[n][0] for n in selfs if n.startswith(_RPC))
    out["distributed.rpc.calls"] = len(rpc)
    out["distributed.rpc.call_p50_ms"] = (
        1e3 * statistics.median(s[3] - s[2] for s in rpc) if rpc else 0.0
    )
    for op in tracing.RPC_OPS:
        self_s, calls = selfs.get(_RPC + op, (0.0, 0))
        out[f"{_RPC}{op}.s"] = self_s
        out[f"{_RPC}{op}.calls"] = calls
    for name in ("distributed.rpc.bytes_out", "distributed.rpc.bytes_in",
                 "core.storage.row_ops", "fl.execution.legs",
                 "fl.trainer.steps", "fl.trainer.samples"):
        out[name] = counts.get(name, 0)

    ends = fit["round_ends"]
    rounds = len(ends)
    pct, tail = tracing.tail_percentile(round_intervals(ends, workload.rounds_in_flight))
    out["fl.scheduler.round_s_tail"] = tail
    out["fl.scheduler.round_s_tail_pct"] = pct
    info = fit["async"]
    landed = fit["k"] * rounds - len(fit["leg_failures"])
    out["fl.scheduler.stale_upload_share"] = info.get("stale_uploads", 0) / max(1, landed)
    for key in ("speculative_blends", "speculative_reblends", "reconcile_fixes",
                "max_dispatch_staleness"):
        out[f"fl.scheduler.{key}"] = info.get(key, 0)

    fit_span = sum(s[3] - s[2] for s in spans if s[1] == "fl.server.fit")
    by_id = {s[0]: s for s in spans}
    # A phase nested in another phase (async: evaluate under the
    # adapter's completion) must not be counted twice.
    phase_s = sum(
        s[3] - s[2] for s in spans
        if s[1] in PHASES and not _has_ancestor(s, by_id, PHASES)
    )
    out["fl.server.phase_cover"] = phase_s / fit_span if fit_span else 0.0

    failures = fit["leg_failures"]
    out["fl.execution.leg_failures"] = len(failures)
    out["faults.legs_predropped"] = sum(1 for f in failures if f["attempts"] == 0)
    out["faults.legs_carried"] = len(failures)
    out["faults.retries"] = sum(max(0, f["attempts"] - 1) for f in failures)
    out["robust.screen.suspects"] = fit["suspects"]
    out["core.pool.blend_bytes"] = fit["k"] * fit["model_size"] * 4

    down, up = sum(fit["comm_down"]), sum(fit["comm_up"])
    out["fl.comm.down_params"] = down
    out["fl.comm.up_params"] = up
    out["fl.comm.measured_over_analytic"] = (down + up) / (
        2 * fit["k"] * fit["model_size"] * rounds
    )

    out["proc.cpu_s"] = fit["cpu_s"]
    out["proc.cpu_over_wall"] = fit["cpu_s"] / fit["fit_s"]
    out["proc.minor_faults"] = fit["minor_faults"]
    out["proc.children"] = fit["children"]
    for kind in ("shm", "children", "sockets"):
        out[f"proc.{kind}_leaked"] = len(fit["leaks"][kind])
    out["trace.spans"] = len(spans)
    return out


def _has_ancestor(span, by_id: dict, names) -> bool:
    parent = by_id.get(span[4])
    while parent is not None:
        if parent[1] in names:
            return True
        parent = by_id.get(parent[4])
    return False


def layer_shares(spans, coordinator: int) -> dict[str, float]:
    """Self time per layer on the coordinator thread ÷ the ``fit()`` span.

    Worker-thread spans are work that ran elsewhere; the coordinator's
    own spans are the blocking path, so their shares sum to ≤ 1.
    """
    fit_span = sum(s[3] - s[2] for s in spans if s[1] == "fl.server.fit")
    own = [s for s in spans if s[6] == coordinator]
    shares: dict[str, float] = {}
    for name, (self_s, _calls) in tracing.self_times(own).items():
        if name == "fl.server.fit" or name.startswith("setup."):
            continue
        layer = layer_of(name)
        shares[layer] = shares.get(layer, 0.0) + self_s
    return {k: v / fit_span for k, v in shares.items()} if fit_span else {}


def layer_of(span_name: str) -> str:
    if span_name.startswith(("fl.trainer", "nn.", "tensor.", "optim.")):
        return "fl.trainer+nn+tensor+optim"
    if span_name.startswith("core."):
        return "core"
    if span_name.startswith("distributed."):
        return "distributed.rpc"
    if span_name.startswith(("robust.", "faults.")):
        return "robust+faults"
    return ".".join(span_name.split(".")[:2])


# -- environment ----------------------------------------------------------------
def scrubbed_env(src_dir: Path) -> tuple[dict, dict]:
    """The run environment (BLAS thread variables removed) and what was removed.

    Every run measures the program's own thread policy, which today is
    none (ROADMAP target (a) must be able to show up).
    """
    env = dict(os.environ)
    scrubbed = {name: env.pop(name) for name in THREAD_VARS if name in env}
    env.update(ALLOCATOR_POLICY)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env, scrubbed


def environment(scrubbed: dict) -> dict:
    """Host facts that tell a noisy host from a regression."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "scrubbed_thread_vars": scrubbed,
        "allocator_policy": ALLOCATOR_POLICY,
    }


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use (None if it cannot be asked)."""
    import ctypes
    import glob

    import numpy as np

    base = Path(np.__file__).parent.parent
    for pattern in ("numpy.libs/libscipy_openblas*.so*", "numpy.libs/libopenblas*.so*"):
        for lib in glob.glob(str(base / pattern)):
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    return int(fn())
    return None
