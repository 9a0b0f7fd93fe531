"""The final pool does not depend on the BLAS thread count.

GEMMs, blends and ``mean_state`` are the same bits at any width by
construction; the float64 Gram dots are not (a threaded level-1
reduction splits the sum — see :mod:`repro.utils.cpu`), so CoModelSel
reads a Gram whose last bits move with the width.  Selection has
absorbed that on every seed tried; this is the gate.  Two interpreter
starts, hence ``slow`` (CI runs it next to the one-thread steps).
"""

import json
import os
import subprocess
import sys

import pytest

import repro

_FIT = """
import hashlib, json
from repro.fl.config import FLConfig
from repro.fl.simulation import FLSimulation
from repro.utils import cpu

sim = FLSimulation(FLConfig(
    method="fedcross", dataset="synth_cifar10", model="mlp", heterogeneity=0.5,
    num_clients=10, participation=0.5, rounds=2, local_epochs=1, batch_size=16,
    eval_every=1, seed=11, method_params={"alpha": 0.9, "selection": "lowest"},
    dataset_params={"samples_per_client": 30, "num_test": 120},
))
result = sim.run()
print(json.dumps({
    "threads": cpu.blas_threads(),
    "row_scalars": int(sim.server.pool.num_scalars),
    "pool": hashlib.sha256(sim.server.pool.matrix.tobytes()).hexdigest(),
    "history": [(r.accuracy, r.loss, r.train_loss) for r in result.history.records],
    "co": [r.extras.get("co_indices") for r in result.history.records],
}))
"""


def _fit(threads):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", _FIT], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.slow
def test_final_pool_and_history_equal_at_one_thread_and_default():
    one, default = _fit(1), _fit(None)
    assert one["threads"] in (1, None)
    # K = 5 rows long enough that a wider pool would split their dots.
    assert one["row_scalars"] > 10_000
    assert one["pool"] == default["pool"]
    assert one["history"] == default["history"]
    assert one["co"] == default["co"]
