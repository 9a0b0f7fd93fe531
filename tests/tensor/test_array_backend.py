"""Array-backend dispatch layer (ISSUE 6).

Three angles:

* registry semantics — the array-backend registry must behave exactly
  like the pool-storage/execution registries it shares the generic
  :class:`~repro.utils.registry.Registry` with;
* per-backend correctness — gradchecks and one seed-CNN client step
  must pass under every registered backend, with the numpy leg the
  bitwise reference;
* dispatch coverage — under the ``instrumented`` backend, the
  linear/conv2d/cross-entropy/SGD hot path must route all array math
  through the backend, with **zero** raw-``np.`` escapes in
  ``repro.tensor.tensor`` / ``repro.tensor.functional`` beyond the
  documented metadata allowlist.
"""

import numpy as np
import pytest

import repro.tensor.functional as F_mod
import repro.tensor.tensor as tensor_mod
from repro.models.registry import build_model
from repro.optim import SGD
from repro.tensor import (
    ARRAY_BACKENDS,
    Tensor,
    active_backend,
    available_array_backends,
    register_array_backend,
    resolve_array_backend,
    set_array_backend,
    to_host,
    use_array_backend,
)
from repro.tensor.backend import OP_SURFACE, ArrayBackend, InstrumentedBackend, NumpyBackend
from repro.tensor.functional import cross_entropy
from repro.tensor.gradcheck import gradcheck

BACKENDS = available_array_backends()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_numpy_and_instrumented_registered(self):
        assert "numpy" in ARRAY_BACKENDS
        assert "instrumented" in ARRAY_BACKENDS

    def test_resolve_is_case_insensitive(self):
        assert resolve_array_backend("NumPy") is NumpyBackend

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            resolve_array_backend("jax")
        with pytest.raises(ValueError, match="numpy"):
            resolve_array_backend("jax")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(KeyError, match="already registered"):

            @register_array_backend("numpy")
            class Dup(ArrayBackend):  # pragma: no cover - never instantiated
                pass

    def test_third_party_backend_round_trip(self):
        @register_array_backend("test_only_array")
        class TestOnly(NumpyBackend):
            pass

        try:
            assert resolve_array_backend("test_only_array") is TestOnly
            assert TestOnly.name == "test_only_array"
            assert "test_only_array" in available_array_backends()
        finally:
            del ARRAY_BACKENDS["test_only_array"]
        assert "test_only_array" not in available_array_backends()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_op_surface_complete(self, backend):
        instance = resolve_array_backend(backend)()
        for op in OP_SURFACE:
            assert callable(getattr(instance, op)), f"{backend} lacks {op}"


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
class TestSelection:
    def test_default_is_numpy(self):
        assert active_backend().name == "numpy"

    def test_use_array_backend_restores_previous(self):
        before = active_backend()
        with use_array_backend("instrumented") as backend:
            assert active_backend() is backend
            assert isinstance(backend, InstrumentedBackend)
        assert active_backend() is before

    def test_set_none_resets_to_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARRAY_BACKEND", raising=False)
        previous = active_backend()
        try:
            assert set_array_backend(None).name == "numpy"
        finally:
            set_array_backend(previous)

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", "instrumented")
        previous = active_backend()
        try:
            selected = set_array_backend(None)
            assert isinstance(selected, InstrumentedBackend)
        finally:
            set_array_backend(previous)

    def test_to_host_identity_for_numpy(self):
        arr = np.arange(3.0)
        assert to_host(arr) is arr


# ----------------------------------------------------------------------
# Per-backend correctness
# ----------------------------------------------------------------------
def _client_step(backend_name: str):
    """One seed-CNN client step: forward, loss, backward, SGD update."""
    with use_array_backend(backend_name):
        model = build_model("cnn_s", seed=7, input_shape=(3, 8, 8), num_classes=4)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.5)
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((6, 3, 8, 8)).astype(np.float32))
        y = rng.integers(0, 4, size=6)
        model.train()
        optimizer.zero_grad()
        loss = cross_entropy(model(x), y)
        loss.backward()
        optimizer.step()
        state = {k: to_host(v).copy() for k, v in model.state_dict().items()}
        return float(to_host(loss.data)), state


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def numpy_step(self):
        return _client_step("numpy")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_client_step_matches_numpy_leg(self, numpy_step, backend):
        ref_loss, ref_state = numpy_step
        loss, state = _client_step(backend)
        exact = resolve_array_backend(backend)().device == "cpu"
        if exact:
            assert loss == ref_loss, backend
        else:  # device backends (cupy) match numerically, not bitwise
            assert np.isclose(loss, ref_loss, rtol=1e-5), backend
        assert state.keys() == ref_state.keys()
        for key in ref_state:
            if exact:
                np.testing.assert_array_equal(state[key], ref_state[key], err_msg=key)
            else:
                np.testing.assert_allclose(
                    state[key], ref_state[key], rtol=1e-4, atol=1e-6, err_msg=key
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gradchecks_pass(self, backend):
        with use_array_backend(backend):
            rng = np.random.default_rng(3)
            a = Tensor(rng.standard_normal((3, 4)))
            b = Tensor(rng.standard_normal((4, 2)))
            gradcheck(lambda p, q: (p.matmul(q)).relu().sum(), [a, b])

            x = Tensor(rng.standard_normal((2, 2, 5, 5)))
            w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5)
            gradcheck(lambda p, q: F_mod.conv2d(p, q, stride=1, padding=1), [x, w])

            logits = Tensor(rng.standard_normal((4, 3)))
            targets = rng.integers(0, 3, size=4)
            gradcheck(lambda p: cross_entropy(p, targets), [logits])


# ----------------------------------------------------------------------
# Dispatch coverage: no raw-numpy escapes on the hot path
# ----------------------------------------------------------------------
#: Attributes the tensor modules may legitimately read off ``np`` at
#: runtime: types/dtypes (isinstance checks, dtype tags).  Everything
#: else counts as an escape — math that should have gone through the
#: dispatch layer.
_NP_ALLOWLIST = frozenset(
    {
        "ndarray",          # isinstance checks in Tensor coercion
        "float32",          # default dtype tag
        "float64",
        "int64",            # index dtype tag
        "dtype",
        "random",           # np.random.Generator in runtime-evaluated spots
    }
)


class _NumpyGuard:
    """``np`` stand-in recording any non-allowlisted attribute access."""

    def __init__(self):
        self.escapes: list[str] = []

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        if name not in _NP_ALLOWLIST:
            self.escapes.append(name)
        return getattr(np, name)


class TestDispatchCoverage:
    def test_hot_path_fully_dispatched(self, monkeypatch):
        guard = _NumpyGuard()
        monkeypatch.setattr(tensor_mod, "np", guard)
        monkeypatch.setattr(F_mod, "np", guard)

        backend = InstrumentedBackend()
        with use_array_backend(backend):
            _client_step(backend)

        assert guard.escapes == [], (
            "raw numpy calls escaped the dispatch layer on the "
            f"linear/conv2d/cross-entropy/SGD hot path: {sorted(set(guard.escapes))}"
        )
        counts = backend.counts
        # The hot path must actually exercise the dispatch surface.
        for op in ("asarray", "exp", "sliding_windows", "zeros_like", "pad", "fmax"):
            assert counts[op] > 0, f"expected dispatched {op} calls, got none"
        assert sum(counts.values()) > 50

    def test_instrumented_counts_reset(self):
        backend = InstrumentedBackend()
        backend.asarray([1.0, 2.0])
        assert backend.counts["asarray"] == 1
        backend.reset()
        assert not backend.counts

    def test_instrumented_wraps_numpy_by_default(self):
        backend = InstrumentedBackend()
        assert isinstance(backend.base, NumpyBackend)
        assert backend.array_type is np.ndarray
        assert backend.base_device == "cpu"
