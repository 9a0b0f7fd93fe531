"""``BENCH_e2e.json``, the committed perf trajectory, and its recorder.

The file parses, every row carries the fields ``tools/bench_record.py``
writes, and its newest row names a commit this checkout's history
contains, so a row cannot point at a commit that was never merged.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCH_e2e.json"

sys.path.insert(0, str(ROOT / "tools"))
import bench_record  # noqa: E402


def _gated() -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_every_row_carries_its_commit_host_and_gated_medians():
    rows = json.loads(BENCH.read_text())["rows"]
    assert rows
    gated = {spec["name"] for spec in _gated()}
    for row in rows:
        assert len(row["commit"]) == 40 and isinstance(row["dirty"], bool)
        assert {"nproc", "blas", "loadavg", "loadavg_end"} <= set(row["host"])
        assert row["workloads"]
        for summary in row["workloads"].values():
            assert summary["correct"] <= summary["runs"] == len(row["seeds"])
            assert set(summary["metrics"]) <= gated
            for metric in summary["metrics"].values():
                assert metric["q1"] <= metric["median"] <= metric["q3"]
                assert metric["iqr"] == pytest.approx(metric["q3"] - metric["q1"])


def test_newest_row_names_a_commit_reachable_from_head():
    newest = json.loads(BENCH.read_text())["rows"][-1]["commit"]
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True
        )

    reachable = git("merge-base", "--is-ancestor", newest, "HEAD").returncode == 0
    if not reachable and git("rev-parse", "--is-shallow-repository").stdout.strip() == "true":
        pytest.skip("shallow clone: the history is not fetched")
    assert reachable, f"{newest} is not an ancestor of HEAD"


def test_summary_takes_medians_and_quartiles_over_the_seeds():
    gated = _gated()
    results = [
        {"correct": True, "failed": 0, "attempted": 5,
         "metrics": {spec["name"]: {"value": float(v)} for spec in gated}}
        for v in (4, 1, 3, 2, 5)
    ] + [None]  # a run that printed no result
    summary = bench_record.summarise(results, gated)
    assert (summary["runs"], summary["correct"], summary["attempted"]) == (6, 5, 25)
    fit = summary["metrics"]["fit_s"]
    assert (fit["q1"], fit["median"], fit["q3"], fit["iqr"]) == (2.0, 3.0, 4.0, 2.0)
    assert fit["values"] == [4.0, 1.0, 3.0, 2.0, 5.0]
