"""Smoke cells for ``tools/mem_phases.py``: a tiny config of a benchmark
workload, run in its fresh child, prints its resident memory after
set-up and after every phase of every round, and on ``process`` each
worker's ``RssAnon`` / ``RssShmem`` / ``VmHWM``."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = {
    "model": "mlp", "num_clients": 4, "k_active": 2,
    "dataset_params": {"samples_per_client": 10, "num_test": 40},
}


def _rows(workload: str) -> list:
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "mem_phases.py"),
         "--workload", workload, "--rounds", "2", "--replace", json.dumps(TINY)],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.splitlines()
    assert out[0].split()[-2] == "pid:RssAnon/RssShmem/VmHWM"
    return [line.split() for line in out[1:]]


def test_mem_phases_prints_every_phase_of_a_tiny_fit():
    rows = _rows("cnn_serial")
    assert [row[:2] for row in rows] == [["setup", "-"]] + [
        [phase, str(t)] for t in range(2)
        for phase in ("dispatch", "collect", "aggregate", "evaluate")
    ]
    for row in rows:
        rss, hwm = float(row[2]), float(row[3])
        assert 0 < rss <= hwm


def test_mem_phases_prints_each_workers_high_water():
    """Once the workers start, every line names both of them with
    ``RssAnon / RssShmem / VmHWM``, and a high-water is at least what
    is resident."""
    rows = _rows("cnn_process")
    assert rows[0][:2] == ["setup", "-"] and len(rows[0]) == 4  # no worker yet
    started = [row for row in rows if len(row) > 4]
    assert started and started[-1][:2] == ["evaluate", "1"]
    for row in started:
        assert len(row) == 6  # cnn_process runs two workers
        for kid in row[4:]:
            anon, shmem, hwm = (float(x) for x in kid.split(":")[1].split("/"))
            assert 0 < anon and 0 <= shmem and anon + shmem <= hwm + 0.2
