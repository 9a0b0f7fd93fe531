#!/usr/bin/env python
"""Every method on every execution backend and model, as one JSON file.

``python tools/method_matrix.py --out FILE.json``

Fits the seven methods × {serial, thread, process, distributed} ×
{mlp, cnn, resnet8 with ``norm="batch"``} on ``synth_cifar10`` (6
clients, participation 0.5, 3 rounds, seed 3; ``distributed`` runs on
two localhost shard hosts) and records, per cell, the SHA-256 of the
final global state (key, dtype, shape and bytes of every field, in
sorted-key order) and the accuracy, loss, train-loss and communication
histories.  The output is written with sorted keys, so comparing two
commits is one ``diff`` of their files.  A change that claims to keep
every bit must leave all 84 cells byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fl.config import FLConfig  # noqa: E402
from repro.fl.simulation import FLSimulation  # noqa: E402

METHODS = ("fedavg", "fedprox", "scaffold", "fedgen", "clusamp", "fedcluster", "fedcross")
EXECUTIONS = ("serial", "thread", "process", "distributed")
MODELS = {"mlp": {}, "cnn": {}, "resnet8": {"norm": "batch"}}


def cell_config(method: str, execution: str, model: str) -> FLConfig:
    distributed = execution == "distributed"
    return FLConfig(
        method=method,
        dataset="synth_cifar10",
        model=model,
        model_params=MODELS[model],
        num_clients=6,
        participation=0.5,
        rounds=3,
        local_epochs=1,
        batch_size=16,
        eval_every=1,
        seed=3,
        backend="distributed" if distributed else "dense",
        hosts=2 if distributed else None,
        execution=execution,
        workers=2,
        dataset_params={"samples_per_client": 30, "num_test": 120},
    )


def state_sha256(state) -> str:
    digest = hashlib.sha256()
    for key in sorted(state):
        value = state[key]
        digest.update(f"{key}|{value.dtype.str}|{value.shape}|".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def run_cell(method: str, execution: str, model: str) -> dict:
    result = FLSimulation(cell_config(method, execution, model)).run()
    records = result.history.records
    return {
        "final_state_sha256": state_sha256(result.final_state),
        "accuracy": [r.accuracy for r in records],
        "loss": [r.loss for r in records],
        "train_loss": [r.train_loss for r in records],
        "comm_up": [r.comm_up_params for r in records],
        "comm_down": [r.comm_down_params for r in records],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    cells = {}
    try:
        for model in MODELS:
            for execution in EXECUTIONS:
                for method in METHODS:
                    name = f"{method}/{execution}/{model}"
                    start = time.perf_counter()
                    cells[name] = run_cell(method, execution, model)
                    print(
                        f"{name:32s} {cells[name]['final_state_sha256'][:16]}"
                        f"  {time.perf_counter() - start:6.2f} s",
                        flush=True,
                    )
    finally:
        cluster = sys.modules.get("repro.distributed.cluster")
        if cluster is not None:
            cluster.shutdown_clusters()
    Path(args.out).write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
