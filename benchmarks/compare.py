"""Benchmark regression gate: fresh ``BENCH_*.json`` vs committed baseline.

CI runs the two smoke benchmarks with ``--json`` (producing
``BENCH_pool_engine.json`` and ``BENCH_client_execution.json``) and
then this script, which diffs the fresh artifacts against the
snapshots committed under ``benchmarks/baseline/`` and **fails on a
>25% hot-path regression** (``--threshold`` to tune).

What is compared — and what deliberately is not
-----------------------------------------------
Absolute seconds are machine-dependent (the committed baseline and the
CI runner are different hosts), and the thread/process *parallel*
speedups scale with core count, so gating on either would flake on
every runner change.  The gated metrics are the machine-robust
same-host **ratios** each benchmark computes internally:

``BENCH_pool_engine.json``
    ``pool_engine[].speedup`` (vectorized engine vs dict loops),
    ``baseline_aggregation[].agg_speedup`` (BLAS reduction vs dict
    loop), ``similarity[].speedup`` (Gram engine vs per-round
    recompute) — higher is better;
    ``sharded[].ratio`` (sharded round vs dense round on the same
    host) — lower is better (a rising ratio means shard-local access
    is getting more expensive than whole-matrix views);
    ``distributed[].ratio`` (distributed round over localhost shard
    hosts vs the sharded round) — lower is better (a rising ratio
    means the socket-RPC transport is getting more expensive per op);
    ``robust[].ratio`` (trimmed-mean round with a poisoned row vs the
    mean round on the same host) — lower is better (a rising ratio
    means Byzantine robustness is getting more expensive per round);
    ``out_of_core.peak_bytes / full_f64_bytes`` — lower is better (a
    rising ratio means whole-pool temporaries are creeping back).
``BENCH_client_execution.json``
    ``backend_dispatch[].ratio`` (dispatched vs seed-direct client
    step) and ``async_rounds[].ratio`` (async vs sync fit under seeded
    stragglers) — lower is better; gated on **full-mode** artifacts
    only, since the smoke ratios compare sub-second micro-timings and
    are pure scheduler jitter on shared runners (the bench's own bars
    make the same distinction).

Rows are matched by their key fields; rows or sections missing from
the *baseline* are reported as new coverage, never failed (so adding a
benchmark section does not require regenerating every snapshot —
refresh with ``--write-baseline`` when one is intended to move).

``--write-baseline`` does not blindly overwrite: when a snapshot
already exists, each gated metric keeps the **conservative envelope**
(the worst value seen — min for higher-is-better speedups, max for
lower-is-better ratios).  Re-running the benches a few times therefore
converges the baseline to a stable floor instead of a lucky sample,
which is what keeps a 25% gate meaningful on noisy shared runners.
Delete a snapshot file first to reset its floor intentionally.

Usage::

    PYTHONPATH=src python benchmarks/compare.py                  # gate CI
    PYTHONPATH=src python benchmarks/compare.py --threshold 0.4  # looser
    PYTHONPATH=src python benchmarks/compare.py --write-baseline # refresh
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# (file, section, key fields, metric, direction, skip_smoke[, threshold])
# skip_smoke: the client-execution ratios compare sub-second
# micro-timings in smoke mode — pure scheduler jitter on shared runners,
# which is why bench_client_execution.py itself only asserts its bars on
# full runs.  The gate follows suit and only gates those sections on
# full-mode artifacts.
# threshold: optional per-gate override of the global --threshold; the
# backend_dispatch gate uses a tight 5% bar against its parity-seeded
# baseline (ratio 1.0), because dispatch indirection should cost
# ~nothing — a 25% tolerance would hide a real hot-path regression.
GATES = [
    ("BENCH_pool_engine.json", "pool_engine", ("k",), "speedup", "higher", False),
    ("BENCH_pool_engine.json", "baseline_aggregation", ("k",), "agg_speedup", "higher", False),
    ("BENCH_pool_engine.json", "similarity", ("k",), "speedup", "higher", False),
    ("BENCH_pool_engine.json", "sharded", ("k", "shards"), "ratio", "lower", False),
    ("BENCH_pool_engine.json", "distributed", ("k", "hosts"), "ratio", "lower", False),
    ("BENCH_pool_engine.json", "robust", ("k",), "ratio", "lower", False),
    ("BENCH_client_execution.json", "backend_dispatch", ("model",), "ratio", "lower", True, 0.05),
    ("BENCH_client_execution.json", "async_rounds", ("k", "staleness"), "ratio", "lower", True),
]
FILES = sorted({gate[0] for gate in GATES})


def _gate_fields(gate):
    """Unpack a GATES entry; the per-gate threshold defaults to None."""
    file, section, keys, metric, direction, skip_smoke = gate[:6]
    override = gate[6] if len(gate) > 6 else None
    return file, section, keys, metric, direction, skip_smoke, override


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def _index(rows: list, keys: tuple) -> dict:
    return {tuple(row[k] for k in keys): row for row in rows}


def compare(fresh_dir: str, baseline_dir: str, threshold: float, emit=print):
    """Return (regressions, notes); regressions non-empty means fail."""
    regressions: list[str] = []
    notes: list[str] = []
    for path in FILES:
        fresh = _load(os.path.join(fresh_dir, path))
        base = _load(os.path.join(baseline_dir, path))
        if fresh is None:
            regressions.append(f"{path}: fresh artifact missing (did the bench run?)")
            continue
        if fresh.get("failures"):
            # The bench's own bars already failed; surface, don't mask.
            regressions.append(f"{path}: bench reported {fresh['failures']}")
        if base is None:
            notes.append(f"{path}: no committed baseline — skipping (seed one with --write-baseline)")
            continue
        for gate in GATES:
            file, section, keys, metric, direction, skip_smoke, override = _gate_fields(gate)
            if file != path:
                continue
            gate_threshold = threshold if override is None else override
            if skip_smoke and fresh.get("smoke"):
                notes.append(
                    f"{path}:{section}: smoke-mode artifact — ratio is "
                    "scheduler jitter at this scale, gated on full runs only"
                )
                continue
            fresh_rows = _index(fresh.get(section) or [], keys)
            base_rows = _index(base.get(section) or [], keys)
            if not base_rows:
                notes.append(f"{path}:{section}: new section, no baseline yet")
                continue
            for key, base_row in base_rows.items():
                fresh_row = fresh_rows.get(key)
                label = f"{path}:{section}{list(key)}:{metric}"
                if fresh_row is None:
                    notes.append(f"{label}: row absent from fresh run")
                    continue
                got, ref = float(fresh_row[metric]), float(base_row[metric])
                if direction == "higher":
                    bad = got < ref * (1.0 - gate_threshold)
                else:
                    bad = got > ref * (1.0 + gate_threshold)
                verdict = "REGRESSION" if bad else "ok"
                emit(f"  {label}: baseline {ref:.3f} -> fresh {got:.3f} [{verdict}]")
                if bad:
                    regressions.append(
                        f"{label}: {got:.3f} vs baseline {ref:.3f} "
                        f"(>{gate_threshold:.0%} {'drop' if direction == 'higher' else 'rise'})"
                    )
        # Out-of-core temp ratio: dict-shaped section, gated separately.
        if path == "BENCH_pool_engine.json":
            got_ooc, ref_ooc = fresh.get("out_of_core"), base.get("out_of_core")
            if got_ooc and ref_ooc:
                got = got_ooc["peak_bytes"] / max(1, got_ooc["full_f64_bytes"])
                ref = ref_ooc["peak_bytes"] / max(1, ref_ooc["full_f64_bytes"])
                bad = got > ref * (1.0 + threshold)
                emit(
                    f"  {path}:out_of_core:peak/full: baseline {ref:.3f} -> "
                    f"fresh {got:.3f} [{'REGRESSION' if bad else 'ok'}]"
                )
                if bad:
                    regressions.append(
                        f"{path}:out_of_core peak/full ratio {got:.3f} vs "
                        f"baseline {ref:.3f} (>{threshold:.0%} rise)"
                    )
    return regressions, notes


def _merge_conservative(path: str, fresh: dict, base: dict) -> dict:
    """Fold ``fresh`` into ``base`` keeping the worst gated value seen."""
    merged = dict(fresh)
    for gate in GATES:
        file, section, keys, metric, direction, _skip_smoke, _override = _gate_fields(gate)
        if file != path:
            continue
        base_rows = _index(base.get(section) or [], keys)
        merged_rows = []
        for row in fresh.get(section) or []:
            row = dict(row)
            prior = base_rows.get(tuple(row[k] for k in keys))
            if prior is not None:
                fold = min if direction == "higher" else max
                row[metric] = fold(float(row[metric]), float(prior[metric]))
            merged_rows.append(row)
        if merged_rows:
            merged[section] = merged_rows
    if path == "BENCH_pool_engine.json":
        got, ref = fresh.get("out_of_core"), base.get("out_of_core")
        if got and ref:
            got_ratio = got["peak_bytes"] / max(1, got["full_f64_bytes"])
            ref_ratio = ref["peak_bytes"] / max(1, ref["full_f64_bytes"])
            merged["out_of_core"] = dict(got if got_ratio >= ref_ratio else ref)
    return merged


def write_baseline(fresh_dir: str, baseline_dir: str, emit=print) -> int:
    os.makedirs(baseline_dir, exist_ok=True)
    missing = []
    for path in FILES:
        src = os.path.join(fresh_dir, path)
        fresh = _load(src)
        if fresh is None:
            missing.append(path)
            continue
        dst = os.path.join(baseline_dir, path)
        base = _load(dst)
        blob = fresh if base is None else _merge_conservative(path, fresh, base)
        with open(dst, "w") as fh:
            json.dump(blob, fh)
            fh.write("\n")
        emit(
            f"baseline {'seeded' if base is None else 'envelope-merged'}: {dst}"
        )
    if missing:
        print(f"missing fresh artifacts: {missing}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fresh-dir", default=".", help="directory holding fresh BENCH_*.json"
    )
    parser.add_argument(
        "--baseline-dir",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline"),
        help="committed baseline snapshot directory",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative regression tolerance on gated ratios (default 25%%)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="copy the fresh artifacts over the baseline snapshots and exit",
    )
    args = parser.parse_args(argv)
    if args.write_baseline:
        return write_baseline(args.fresh_dir, args.baseline_dir)
    regressions, notes = compare(args.fresh_dir, args.baseline_dir, args.threshold)
    for note in notes:
        print(f"  note: {note}")
    if regressions:
        print("BENCH REGRESSION: " + "; ".join(regressions), file=sys.stderr)
        return 1
    print("bench gate ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
