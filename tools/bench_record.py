#!/usr/bin/env python
"""Append the end-to-end benchmark's gated medians to ``BENCH_e2e.json``.

``python tools/bench_record.py --tree parent=DIR --tree change=. --workload cnn_process --seeds 1 2 3``

Drives the benchmark's driver contract as it stands,
``benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0``
(one JSON object on the last line of its output), in each named
checkout — the checkout's own ``run.py`` on its own ``src/`` — and
appends one row per checkout to the committed ``BENCH_e2e.json`` at the
repository root.  Seeds are the pairs: for each seed every tree runs
once, the order alternating from seed to seed, so two trees give
alternating parent/change pairs on identical settings.

A row holds the checkout's commit (``git rev-parse HEAD``; ``dirty`` when
it has uncommitted changes, so a change measured before its commit names
its parent), the host fingerprint (``nproc``, the BLAS build, the load
average before and after), and per workload every gated metric of
``BENCHMARK.json`` as the median and quartiles over the seeds with the
per-seed values, plus the runs that were correct and the driver's
failed / attempted counts.  With two trees a comparison is printed:
per metric the medians, the change's wins over the pairs and the
first tree's inter-quartile range.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "BENCH_e2e.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, the inclusive method (exact on any count)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def host_fingerprint() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # noqa: BLE001 - older NumPy: no dict mode
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def tree_commit(tree: Path) -> dict:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(tree), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    return {
        "commit": git("rev-parse", "HEAD"),
        "subject": git("log", "-1", "--format=%s"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def drive(tree: Path, workload: str, seed: int, seconds: int) -> dict | None:
    """One driver run; its JSON result, or ``None`` if it printed none."""
    done = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{tree} {workload} seed {seed}: no result\n{done.stderr}", file=sys.stderr)
        return None


def summarise(results: list[dict | None], gated: list[dict]) -> dict:
    """Medians, quartiles and per-seed values of the gated metrics."""
    ok = [r for r in results if r is not None]
    metrics = {}
    for spec in gated:
        name = spec["name"]
        values = [r["metrics"][name]["value"] for r in ok]
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        metrics[name] = {
            "unit": spec["unit"], "median": median, "q1": q1, "q3": q3,
            "iqr": q3 - q1, "values": values,
        }
    return {
        "runs": len(results),
        "correct": sum(1 for r in ok if r["correct"]),
        "failed": sum(r["failed"] for r in ok),
        "attempted": sum(r["attempted"] for r in ok),
        "metrics": metrics,
    }


def compare(rows: list[dict], gated: list[dict]) -> None:
    """Print the second row against the first, pair by pair."""
    base, other = rows
    for workload, summary in other["workloads"].items():
        for spec in gated:
            name = spec["name"]
            a = base["workloads"][workload]["metrics"].get(name)
            b = summary["metrics"].get(name)
            if a is None or b is None:
                continue
            lower = spec["better"] == "lower"
            wins = sum(
                (y < x) if lower else (y > x) for x, y in zip(a["values"], b["values"])
            )
            gap = b["median"] / a["median"] - 1 if a["median"] else float("nan")
            print(
                f"{workload:18s} {name:22s} {a['median']:.4g} -> {b['median']:.4g} "
                f"({gap:+.1%}), {other['label']} better in {wins}/{len(a['values'])}, "
                f"{base['label']} IQR {a['iqr']:.4g}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=DIR",
                        help="a checkout to measure (repeatable; rows in this order)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    trees = []
    for spec in args.tree:
        label, _, path = spec.partition("=")
        trees.append((label, Path(path).resolve()))
    with open(ROOT / "BENCHMARK.json") as handle:
        gated = json.load(handle)["end_to_end"]

    host = host_fingerprint()
    results = {(label, w): [] for label, _ in trees for w in args.workload}
    for k, seed in enumerate(args.seeds):
        order = trees if k % 2 == 0 else trees[::-1]
        for workload in args.workload:
            for label, tree in order:
                results[label, workload].append(drive(tree, workload, seed, args.seconds))
    recorded = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    rows = [
        {
            **tree_commit(tree),
            "label": label,
            "recorded": recorded,
            "host": {**host, "loadavg_end": [round(x, 2) for x in os.getloadavg()]},
            "contract": f"run.py --workload W --seed N --seconds {args.seconds} --trace 0",
            "seeds": args.seeds,
            "workloads": {w: summarise(results[label, w], gated) for w in args.workload},
        }
        for label, tree in trees
    ]
    data = {"rows": []}
    if args.out.exists():
        with open(args.out) as handle:
            data = json.load(handle)
    data["rows"].extend(rows)
    with open(args.out, "w") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    if len(rows) == 2:
        compare(rows, gated)
    return 0


if __name__ == "__main__":
    sys.exit(main())
