"""Hypothesis determinism tests: execution backends are bit-identical.

The execution engine's core guarantee (ISSUE 3): ``serial``,
``thread`` and ``process`` produce bit-identical
:class:`~repro.fl.metrics.TrainingHistory` records and final pool
matrices, because each client owns an independent RNG stream and a
deterministic upload-buffer row.  Checked on the seed CNN for FedCross
(multi-model dispatch, pool cross-aggregation) and FedProx (hooked
local training via :class:`~repro.fl.hooks.ProximalSpec`).

Examples are deliberately few — every draw runs three full FL
simulations, one of them on a real worker-process pool.
"""

from hypothesis import given, settings, strategies as st

from _fits import assert_same_fit, run_fit
from repro.fl.config import FLConfig


def _config(method: str, seed: int, heterogeneity) -> FLConfig:
    return FLConfig(
        method=method,
        dataset="synth_cifar10",
        model="cnn_s",
        heterogeneity=heterogeneity,
        num_clients=4,
        participation=0.5,
        rounds=2,
        local_epochs=1,
        batch_size=16,
        eval_every=1,
        seed=seed,
        dataset_params={"samples_per_client": 20, "num_test": 40},
        method_params={"mu": 0.1} if method == "fedprox" else {},
    )


@given(
    method=st.sampled_from(["fedcross", "fedprox"]),
    seed=st.integers(0, 1_000),
    heterogeneity=st.sampled_from(["iid", 0.5]),
)
@settings(max_examples=4, deadline=None)
def test_backends_bit_identical_on_seed_cnn(method, seed, heterogeneity):
    base = _config(method, seed, heterogeneity)
    reference = run_fit(base)
    for execution in ("thread", "process"):
        got = run_fit(base.replace(execution=execution, workers=2))
        assert_same_fit(reference, got, f"{method}/{execution}/seed={seed}")


@given(
    method=st.sampled_from(["fedcross", "scaffold"]),
    seed=st.integers(0, 1_000),
)
@settings(max_examples=3, deadline=None)
def test_streaming_bit_identical_to_gathered_per_backend(gathered_collect, method, seed):
    """ISSUE 4: the as-completed streaming collect must reproduce the
    gathered oracle (``backend.run``) bit-for-bit on every backend —
    including FedCross's incrementally tracked Gram (update order varies
    with completion order) and SCAFFOLD's shm-deduped control variates."""
    base = _config(method, seed, 0.5)
    reference = run_fit(base, install=gathered_collect)
    for execution in ("serial", "thread", "process"):
        got = run_fit(base.replace(execution=execution, workers=2))
        assert_same_fit(
            reference, got, f"{method}/{execution}/streaming/seed={seed}"
        )
