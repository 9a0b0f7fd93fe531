#!/usr/bin/env python
"""Where does a client step's time go?  ``python tools/step_profile.py [--steps N] [--model M]``

Runs one leg of N momentum-SGD steps through a ``LocalTrainer`` — the
step every leg runs: parameters bound into ``trainer.row``, gradients
landing in ``trainer.grad_row``, one ``SGD.step`` over the rows — on the
benchmark-shape client: the ``cnn`` on ``(3, 16, 16)`` inputs with
batch 20 (``cnn_serial``) and the ``mlp`` with batch 50 (``pool_k50``).
It prints, per graph node, the median forward and backward
milliseconds, then the step's totals: forward (the model call and the
loss), backward (nodes plus the engine's own sort-and-dispatch),
``SGD.step`` and the whole step (one ``zero_grad`` to the next; the
last step ends with the leg) as a median and p90, with the count of
steps slower than ten times the median — one BLAS wake-up stall can
outweigh every other step, so a mean would hide the typical step.

A node's forward time is the wall-clock from the previous node's
creation (or the step's ``zero_grad``) to its own, so module-call
overhead lands on the node that follows it.  Its backward time is its
closure, including the ``_accumulate`` into its parents — a fused
``linear`` node's weight closure, which the engine runs later, counts
toward it too.  Set ``OPENBLAS_NUM_THREADS`` to pin the BLAS width the
GEMM rows see.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.data.dataset import ArrayDataset  # noqa: E402
from repro.fl.trainer import LocalTrainer  # noqa: E402
from repro.models.registry import build_model  # noqa: E402
from repro.nn.module import Module  # noqa: E402
from repro.optim.sgd import SGD  # noqa: E402
from repro.tensor import functional  # noqa: E402
from repro.tensor.tensor import Tensor  # noqa: E402

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

    def _wrap(self, data, parents, backward, op, late=None):
        now = time.perf_counter()
        self._seen[op] += 1
        key = f"{op}#{self._seen[op]}"
        if key not in self.shapes:
            self.order.append(key)
            self.shapes[key] = tuple(data.shape)
        self.forward[key].append(now - self._mark)
        samples = self.backward[key]
        # A late closure's time is added to its node's backward sample.
        pending: list[float] = []

        def timed(fn, last):
            def run(g) -> None:
                t0 = time.perf_counter()
                fn(g)
                pending.append(time.perf_counter() - t0)
                if last:
                    samples.append(sum(pending))

            return run

        out = self._make.__func__(
            data,
            parents,
            timed(backward, late is None),
            op,
            None if late is None else timed(late, True),
        )
        self._mark = time.perf_counter()
        return out

    def __enter__(self) -> "NodeClock":
        Tensor._make = staticmethod(self._wrap)
        return self

    def __exit__(self, *exc) -> None:
        Tensor._make = self._make


class PhaseClock:
    """Per-call wall-clock of named callables (outermost calls only)."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._saved: list[tuple[object, str, object]] = []
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, owner, attr: str, key: str, before=None) -> None:
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, fn))

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if before is not None:
                before()
            self._depth[key] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._depth[key] -= 1
                if not self._depth[key]:
                    self.samples[key].append(elapsed)

        setattr(owner, attr, timed)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def _ms(samples) -> float:
    return 1e3 * statistics.median(samples) if samples else 0.0


def profile(name: str, steps: int, warmup: int = 3) -> None:
    kwargs, batch = CASES[name]
    model = build_model(name, seed=0, **kwargs)
    trainer = LocalTrainer(model, local_epochs=1, batch_size=batch, lr=0.01, momentum=0.5)
    rng = np.random.default_rng(0)

    def leg(n_steps: int) -> float:
        """Train one leg of ``n_steps`` steps; the time it ended."""
        n = n_steps * batch
        data = ArrayDataset(
            rng.standard_normal((n, *SHAPE)).astype(np.float32), rng.integers(0, 10, size=n)
        )
        trainer.train(trainer.row.copy(), data, rng)
        return time.perf_counter()

    leg(warmup)
    clock = NodeClock()
    phases = PhaseClock()
    starts: list[float] = []

    def step_started() -> None:
        starts.append(time.perf_counter())
        clock.start()

    phases.wrap(SGD, "zero_grad", "zero_grad", before=step_started)
    phases.wrap(Module, "__call__", "model")
    phases.wrap(functional, "cross_entropy", "loss")
    phases.wrap(Tensor, "backward", "backward")
    phases.wrap(SGD, "step", "SGD.step")
    try:
        with clock:
            ended = leg(steps)
    finally:
        phases.restore()
    whole = np.diff([*starts, ended])
    median = float(np.median(whole))
    forward = [m + c for m, c in zip(phases.samples["model"], phases.samples["loss"])]

    print(f"\n{name}: batch {batch}, inputs {SHAPE}, one leg of {steps} steps, medians (ms)")
    print(f"{'node':<18}{'output shape':<22}{'forward':>9}{'backward':>10}")
    node_bwd = 0.0
    for key in clock.order:
        fwd, bwd = _ms(clock.forward[key]), _ms(clock.backward[key])
        node_bwd += bwd
        print(f"{key:<18}{str(clock.shapes[key]):<22}{fwd:9.3f}{bwd:10.3f}")
    backward = _ms(phases.samples["backward"])
    print(f"{'engine':<40}{'':>9}{backward - node_bwd:10.3f}")
    print(f"{'total':<40}{_ms(forward):9.3f}{backward:10.3f}")
    how = "per parameter" if trainer.optimizer._per_param else "one row update"
    print(
        f"SGD.step {_ms(phases.samples['SGD.step']):.3f} ({how})   "
        f"whole step {1e3 * median:.3f} median, "
        f"{1e3 * float(np.percentile(whole, 90)):.3f} p90, "
        f"{int((whole > 10 * median).sum())} of {len(whole)} steps over 10x the median"
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=30, help="timed steps per model")
    parser.add_argument("--model", choices=sorted(CASES) + ["both"], default="both")
    args = parser.parse_args(argv)
    for name in sorted(CASES) if args.model == "both" else [args.model]:
        profile(name, args.steps)


if __name__ == "__main__":
    main()
