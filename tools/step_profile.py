#!/usr/bin/env python
"""Where does a client step's time go?  ``python tools/step_profile.py [--steps N] [--model M]``

Runs N momentum-SGD steps of the benchmark-shape client step — the
``cnn`` on ``(3, 16, 16)`` inputs with batch 20 (``cnn_serial``) and the
``mlp`` with batch 50 (``pool_k50``) — and prints, per graph node, the
median forward and backward milliseconds, then the step's totals:
forward, backward (nodes plus the engine's own sort-and-dispatch),
``SGD.step`` and the whole step.

A node's forward time is the wall-clock from the previous node's
creation to its own, so module-call overhead lands on the node that
follows it.  Its backward time is its closure, including the
``_accumulate`` into its parents.  Set ``OPENBLAS_NUM_THREADS`` to pin
the BLAS width the GEMM rows see.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.models.registry import build_model  # noqa: E402
from repro.optim import SGD  # noqa: E402
from repro.tensor import Tensor  # noqa: E402
from repro.tensor.functional import cross_entropy  # noqa: E402

SHAPE = (3, 16, 16)
CASES = {
    "cnn": (dict(input_shape=SHAPE, num_classes=10), 20),
    "mlp": (dict(input_dim=int(np.prod(SHAPE)), num_classes=10), 50),
}


class NodeClock:
    """Times every node ``Tensor._make`` creates while installed."""

    def __init__(self) -> None:
        self.forward: dict[str, list[float]] = defaultdict(list)
        self.backward: dict[str, list[float]] = defaultdict(list)
        self.shapes: dict[str, tuple] = {}
        self.order: list[str] = []
        self._seen: dict[str, int] = defaultdict(int)
        self._mark = 0.0
        self._make = Tensor.__dict__["_make"]

    def start(self) -> None:
        """Begin a step: node ordinals restart and the forward clock runs."""
        self._seen.clear()
        self._mark = time.perf_counter()

    def _wrap(self, data, parents, backward, op):
        now = time.perf_counter()
        self._seen[op] += 1
        key = f"{op}#{self._seen[op]}"
        if key not in self.shapes:
            self.order.append(key)
            self.shapes[key] = tuple(data.shape)
        self.forward[key].append(now - self._mark)
        samples = self.backward[key]

        def timed(g) -> None:
            t0 = time.perf_counter()
            backward(g)
            samples.append(time.perf_counter() - t0)

        out = self._make.__func__(data, parents, timed, op)
        self._mark = time.perf_counter()
        return out

    def __enter__(self) -> "NodeClock":
        Tensor._make = staticmethod(self._wrap)
        return self

    def __exit__(self, *exc) -> None:
        Tensor._make = self._make


def _ms(samples) -> float:
    return 1e3 * statistics.median(samples) if samples else 0.0


def profile(name: str, steps: int, warmup: int = 3) -> None:
    kwargs, batch = CASES[name]
    model = build_model(name, seed=0, **kwargs)
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.5)
    rng = np.random.default_rng(0)
    clock = NodeClock()
    model.train()

    def step() -> dict[str, float]:
        x = Tensor(rng.standard_normal((batch, *SHAPE)).astype(np.float32))
        y = rng.integers(0, 10, size=batch)
        optimizer.zero_grad()
        t0 = time.perf_counter()
        clock.start()
        loss = cross_entropy(model(x), y)
        t1 = time.perf_counter()
        loss.backward()
        t2 = time.perf_counter()
        optimizer.step()
        t3 = time.perf_counter()
        return {"forward": t1 - t0, "backward": t2 - t1, "SGD.step": t3 - t2, "step": t3 - t0}

    for _ in range(warmup):
        step()
    with clock:
        runs = [step() for _ in range(steps)]
    totals = {key: [run[key] for run in runs] for key in runs[0]}

    print(f"\n{name}: batch {batch}, inputs {SHAPE}, median of {steps} steps (ms)")
    print(f"{'node':<16}{'output shape':<22}{'forward':>9}{'backward':>10}")
    node_bwd = 0.0
    for key in clock.order:
        fwd, bwd = _ms(clock.forward[key]), _ms(clock.backward[key])
        node_bwd += bwd
        print(f"{key:<16}{str(clock.shapes[key]):<22}{fwd:9.3f}{bwd:10.3f}")
    print(f"{'engine':<38}{'':>9}{_ms(totals['backward']) - node_bwd:10.3f}")
    print(f"{'total':<38}{_ms(totals['forward']):9.3f}{_ms(totals['backward']):10.3f}")
    print(f"SGD.step {_ms(totals['SGD.step']):.3f}   whole step {_ms(totals['step']):.3f}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=30, help="timed steps per model")
    parser.add_argument("--model", choices=sorted(CASES) + ["both"], default="both")
    args = parser.parse_args(argv)
    for name in sorted(CASES) if args.model == "both" else [args.model]:
        profile(name, args.steps)


if __name__ == "__main__":
    main()
