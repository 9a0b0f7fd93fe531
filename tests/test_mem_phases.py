"""Smoke cell for ``tools/mem_phases.py``: a tiny config of a benchmark
workload, run in its fresh child, prints its resident memory after
set-up and after every phase of every round."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = {
    "model": "mlp", "num_clients": 4, "k_active": 2,
    "dataset_params": {"samples_per_client": 10, "num_test": 40},
}


def test_mem_phases_prints_every_phase_of_a_tiny_fit():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "mem_phases.py"),
         "--workload", "cnn_serial", "--rounds", "2", "--replace", json.dumps(TINY)],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.splitlines()
    rows = [line.split() for line in out[1:]]
    assert [row[:2] for row in rows] == [["setup", "-"]] + [
        [phase, str(t)] for t in range(2)
        for phase in ("dispatch", "collect", "aggregate", "evaluate")
    ]
    for row in rows:
        rss, hwm = float(row[2]), float(row[3])
        assert 0 < rss <= hwm
