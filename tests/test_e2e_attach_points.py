"""Tier-1 guard for the frozen end-to-end benchmark harness.

``benchmarks/e2e/trace.py`` attaches its spans to named callables of
``repro`` from outside (class ``__dict__`` entries, module attributes).
Renaming or hoisting one of them breaks only ``run.py --trace 1`` —
minutes into a benchmark run.  This installs the recorder against the
configs of the workloads that between them touch every attach point
(process workers, the shard fleet, the async scheduler) and asserts it
returns, so the breakage shows here instead.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
E2E = REPO_ROOT / "benchmarks" / "e2e"

SCRIPT = """
import sys
sys.path[:0] = [{e2e!r}, {src!r}]
import trace as tracing  # benchmarks/e2e/trace.py, as child.py imports it
import repro.fl.simulation
from workloads import WORKLOADS, build_config

for name in ("cnn_process", "dist_2host", "async_stragglers"):
    tracing.install(tracing.Recorder(), build_config(WORKLOADS[name], seed=0))
    print("attached", name)
"""


@pytest.mark.skipif(not E2E.is_dir(), reason="benchmarks/e2e is not checked out")
def test_trace_install_finds_every_attach_point():
    script = SCRIPT.format(e2e=str(E2E), src=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.split() == [
        "attached", "cnn_process", "attached", "dist_2host",
        "attached", "async_stragglers",
    ]
