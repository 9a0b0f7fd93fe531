"""RNG streams, state-dict utilities, the CPU budget and the registry
conformance set (direct unit tests)."""

import os
import sys
import types

import numpy as np
import pytest

from repro.utils import cpu
from repro.utils.knobs import load
from repro.utils.registry import UnknownName
from repro.utils.rng import default_rng, spawn_rng

# The state-dict aggregation paths, the oracle the row engine is held to.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "core"))
from _dict_oracle import (  # noqa: E402
    flatten_state_dict,
    state_dict_like,
    tree_map,
    unflatten_state_dict,
    weighted_average,
)


class TestRng:
    def test_default_rng_deterministic(self):
        assert default_rng(5).random() == default_rng(5).random()

    def test_spawn_from_seed_independent_streams(self):
        streams = spawn_rng(7, 3)
        values = [s.random() for s in streams]
        assert len(set(values)) == 3

    def test_spawn_reproducible(self):
        a = [g.random() for g in spawn_rng(7, 3)]
        b = [g.random() for g in spawn_rng(7, 3)]
        assert a == b

    def test_spawn_from_generator(self):
        parent = default_rng(3)
        children = spawn_rng(parent, 2)
        assert len(children) == 2
        assert children[0].random() != children[1].random()


class TestParams:
    def test_flatten_sorted_key_order(self):
        state = {"b": np.array([3.0, 4.0]), "a": np.array([1.0, 2.0])}
        np.testing.assert_array_equal(flatten_state_dict(state), [1, 2, 3, 4])

    def test_flatten_empty(self):
        assert flatten_state_dict({}).size == 0

    def test_unflatten_preserves_dtype(self):
        ref = {"w": np.zeros((2, 2), dtype=np.float32)}
        out = unflatten_state_dict(np.arange(4.0), ref)
        assert out["w"].dtype == np.float32
        assert out["w"].shape == (2, 2)

    def test_unflatten_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            unflatten_state_dict(np.zeros(5), {"w": np.zeros(3)})

    def test_tree_map_key_mismatch_raises(self):
        with pytest.raises(KeyError):
            tree_map(lambda a, b: a + b, {"x": np.zeros(1)}, {"y": np.zeros(1)})

    def test_tree_map_requires_states(self):
        with pytest.raises(ValueError):
            tree_map(lambda: None)

    def test_weighted_average_weights(self):
        a = {"w": np.array([0.0])}
        b = {"w": np.array([10.0])}
        out = weighted_average([a, b], [3.0, 1.0])
        np.testing.assert_allclose(out["w"], [2.5])

    def test_weighted_average_integer_buffers_carried(self):
        """Regression: int buffers were averaged in float then truncated
        back to the int dtype, corrupting e.g. step counters."""
        a = {"w": np.array([0.0]), "steps": np.array([5], dtype=np.int32)}
        b = {"w": np.array([2.0]), "steps": np.array([9], dtype=np.int32)}
        out = weighted_average([a, b])
        np.testing.assert_allclose(out["w"], [1.0])
        np.testing.assert_array_equal(out["steps"], [5])
        assert out["steps"].dtype == np.int32

    def test_weighted_average_validation(self):
        with pytest.raises(ValueError):
            weighted_average([])
        with pytest.raises(ValueError):
            weighted_average([{"w": np.zeros(1)}], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_average([{"w": np.zeros(1)}], [0.0])

    def test_state_dict_like(self):
        ref = {"w": np.ones((2, 2))}
        out = state_dict_like(ref, lambda v: v * 3)
        np.testing.assert_allclose(out["w"], np.full((2, 2), 3.0))


#: Every registry a named knob resolves through.
REGISTRIES = (
    "repro.fl.registry:METHODS",
    "repro.models.registry:MODEL_BUILDERS",
    "repro.data.federated:DATASET_BUILDERS",
    "repro.core.storage:POOL_BACKENDS",
    "repro.fl.execution:EXECUTION_BACKENDS",
    "repro.fl.scheduler:ROUND_SCHEDULERS",
    "repro.robust.operators:AGGREGATION_OPERATORS",
)


@pytest.fixture(params=REGISTRIES, ids=lambda path: path.split(":")[1])
def registry(request):
    return load(request.param)


class TestRegistryConformance:
    def test_unknown_name_raises_the_one_error_listing_every_name(self, registry):
        with pytest.raises(UnknownName, match=f"unknown {registry.kind} 'nope'") as err:
            registry.resolve("nope")
        assert isinstance(err.value, ValueError)
        assert registry.available() and str(registry.available()) in str(err.value)

    def test_duplicate_registration_is_refused(self, registry):
        name = registry.available()[0]
        registered = registry.resolve(name)  # a lazy name registers on resolve
        with pytest.raises(KeyError, match="already registered"):
            registry.register(name.upper())(type("Dup", (), {}))
        assert registry.resolve(name) is registered

    def test_lookup_is_case_insensitive(self, registry):
        for name in registry.available():
            assert name.upper() in registry
            assert registry.resolve(name.upper()) is registry.resolve(name)

    def test_membership_agrees_with_resolve(self, registry):
        for name in [*registry.available(), "nope", ""]:
            try:
                registry.resolve(name)
            except UnknownName:
                assert name not in registry
            else:
                assert name in registry

    def test_registration_lowercases_and_stamps_the_name(self, registry):
        probe = registry.register("Conformance_Probe")(type("Probe", (), {}))
        try:
            assert probe.name == "conformance_probe"
            assert "conformance_probe" in registry.available()
            assert registry.resolve("CONFORMANCE_PROBE") is probe
        finally:
            del registry["conformance_probe"]
        assert "conformance_probe" not in registry


@pytest.fixture()
def restore_blas_threads():
    """Put every BLAS pool back at the width the test found it at."""
    before = [(set_threads, int(get())) for set_threads, get in cpu._controls()]
    yield
    for set_threads, count in before:
        set_threads(count)


class TestCpuBudget:
    def test_usable_cores_follows_affinity_not_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert cpu.usable_cores() == 2
        # No affinity API on this platform: the machine's count is all we have.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cpu.usable_cores() == 64

    def test_blas_share_divides_cores_among_peers(self, monkeypatch):
        monkeypatch.setattr(cpu, "usable_cores", lambda: 8)
        assert [cpu.blas_share(n) for n in (1, 2, 3, 8)] == [8, 4, 2, 1]
        assert cpu.blas_share(16) == 1  # more peers than cores: never 0
        assert cpu.blas_share(0) == 8  # no peers is one process

    def test_limit_round_trips_and_never_widens(self, restore_blas_threads):
        inherited = cpu.blas_threads()
        if inherited is None:
            pytest.skip("no known BLAS loaded in this interpreter")
        # A cap above the inherited width is a no-op ...
        assert cpu.limit_blas_threads(inherited + 4) == inherited
        assert cpu.blas_threads() == inherited
        # ... a cap below it lands, and reads back ...
        assert cpu.limit_blas_threads(1) == 1
        assert cpu.blas_threads() == 1
        # ... and nothing asked afterwards raises the count again.
        assert cpu.limit_blas_threads(inherited) == 1
        assert cpu.limit_blas_threads(0) == 1  # nonsense caps clamp to 1

    def test_unknown_blas_is_a_reported_noop(self, monkeypatch):
        monkeypatch.setattr(cpu, "_mapped_blas_paths", lambda: [])
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # ImportError
        assert cpu.blas_threads() is None
        assert cpu.limit_blas_threads(1) is None

    def test_threadpoolctl_is_used_when_nothing_is_mapped(self, monkeypatch):
        class Lib:
            def __init__(self, user_api, threads):
                self.user_api, self.threads = user_api, threads

            def get_num_threads(self):
                return self.threads

            def set_num_threads(self, n):
                self.threads = n

        libs = [Lib("blas", 8), Lib("blas", 2), Lib("openmp", 16)]
        fake = types.ModuleType("threadpoolctl")
        fake.ThreadpoolController = lambda: types.SimpleNamespace(lib_controllers=libs)
        monkeypatch.setattr(cpu, "_mapped_blas_paths", lambda: [])
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        assert cpu.blas_threads() == 8
        assert cpu.limit_blas_threads(4) == 4
        # Each pool is capped on its own: the narrow one is not widened,
        # and a non-BLAS pool is not ours to touch.
        assert [lib.threads for lib in libs] == [4, 2, 16]


def _child_reports_blas_threads(conn):
    conn.send(cpu.blas_threads())
    conn.close()


class TestChildrenHold:
    """``reserve_for_children``: while a process owns compute children
    its own BLAS pools hold ``max(1, cores - peers * share)``; the last
    release restores the width the first hold found."""

    def test_coordinator_share_is_what_the_children_leave(self, monkeypatch):
        monkeypatch.setattr(cpu, "usable_cores", lambda: 8)
        # peers -> (each child's share, the parent's)
        assert [(cpu.blas_share(n), cpu.coordinator_share(n)) for n in (1, 2, 3, 5, 16)] == [
            (8, 1), (4, 1), (2, 2), (1, 3), (1, 1),
        ]
        monkeypatch.setattr(cpu, "usable_cores", lambda: 2)
        assert [cpu.coordinator_share(n) for n in (1, 2, 3)] == [1, 1, 1]
        assert cpu.coordinator_share(0) == 2  # owns nothing: the whole pool

    def test_hold_caps_and_release_restores(
        self, restore_blas_threads, inherited_blas_threads, monkeypatch
    ):
        inherited = inherited_blas_threads
        monkeypatch.setattr(cpu, "usable_cores", lambda: 8)
        hold = cpu.reserve_for_children(3)  # leaves 8 - 3 * 2 = 2
        assert cpu.blas_threads() == min(inherited, 2)
        hold.release()
        assert cpu.blas_threads() == inherited
        hold.release()  # idempotent, and never a second restore
        cpu.limit_blas_threads(1)
        hold.release()
        assert cpu.blas_threads() == 1

    def test_two_owners_hold_the_minimum_until_the_last_release(
        self, inherited_blas_threads, monkeypatch
    ):
        inherited = inherited_blas_threads
        monkeypatch.setattr(cpu, "usable_cores", lambda: 8)
        wide = cpu.reserve_for_children(3)  # 2
        narrow = cpu.reserve_for_children(2)  # 1
        assert cpu.blas_threads() == 1
        narrow.release()
        assert cpu.blas_threads() == 1, "nothing widens while an owner is live"
        again = cpu.reserve_for_children(3)
        assert cpu.blas_threads() == 1
        wide.release()
        assert cpu.blas_threads() == 1
        again.release()
        assert cpu.blas_threads() == inherited
        assert not cpu._HOLDS and not cpu._INHERITED

    def test_an_inherited_operator_cap_is_never_widened(
        self, restore_blas_threads, inherited_blas_threads, monkeypatch
    ):
        cpu.limit_blas_threads(1)  # as OPENBLAS_NUM_THREADS=1 would have
        monkeypatch.setattr(cpu, "usable_cores", lambda: 8)
        hold = cpu.reserve_for_children(3)  # would leave 2
        assert cpu.blas_threads() == 1
        hold.release()
        assert cpu.blas_threads() == 1

    def test_a_hold_on_an_unknown_blas_is_a_noop(self, inherited_blas_threads, monkeypatch):
        monkeypatch.setattr(cpu, "_mapped_blas_paths", lambda: [])
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # ImportError
        hold = cpu.reserve_for_children(2)
        assert cpu.blas_threads() is None and not cpu._INHERITED
        hold.release()
        assert not cpu._HOLDS

    def test_a_forked_child_starts_from_the_inherited_width(
        self, inherited_blas_threads, monkeypatch
    ):
        """The hold is the parent's: a worker or host forked while it is
        live (a failover respawn) cuts its share from the full width."""
        import multiprocessing

        inherited = inherited_blas_threads
        if not hasattr(os, "register_at_fork"):
            pytest.skip("needs fork")
        monkeypatch.setattr(cpu, "usable_cores", lambda: 8)
        hold = cpu.reserve_for_children(2)
        try:
            assert cpu.blas_threads() == 1
            ctx = multiprocessing.get_context("fork")
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_child_reports_blas_threads, args=(child,))
            proc.start()
            child.close()
            assert parent.poll(30.0)
            assert parent.recv() == inherited
            proc.join(timeout=10.0)
            assert not proc.is_alive()
            assert cpu.blas_threads() == 1  # the parent's hold is untouched
        finally:
            hold.release()
        assert cpu.blas_threads() == inherited
