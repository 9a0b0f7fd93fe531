"""Client-execution backends: registry, mechanics, hook specs."""

import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from _dict_leg import dict_plan_leg
from _fits import assert_same_fit, run_fit
from repro.core.pool import PoolBuffer
from repro.fl.config import FLConfig
from repro.fl.execution import (
    ExecutionBackend,
    TrainerSpec,
    available_executions,
    register_execution,
    resolve_execution,
)
from repro.fl.hooks import ControlVariateSpec, ProximalSpec
from repro.fl.server import DispatchPlan
from repro.fl.simulation import FLSimulation
from repro.utils import cpu


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"serial", "thread", "process", "distributed"} <= set(
            available_executions()
        )

    def test_third_party_backend_selectable(self, tiny_config):
        calls = []

        @register_execution("probe-serial")
        class Probe(resolve_execution("serial")):
            def run_streaming(self, trainer, active, plans, rows, uploads):
                calls.append(len(plans))
                return super().run_streaming(trainer, active, plans, rows, uploads)

        try:
            sim = FLSimulation(tiny_config.replace(execution="probe-serial"))
            sim.server.run_round(sim.server.select_cohort())
            assert calls == [tiny_config.clients_per_round]
        finally:
            from repro.fl.execution import EXECUTION_BACKENDS

            del EXECUTION_BACKENDS["probe-serial"]

    def test_submit_group_only_backend_serves_every_schedule(
        self, tiny_config, gathered_collect
    ):
        """The extension contract: a third-party backend implementing
        nothing but ``submit_group`` (and, as its legs train inline, the
        ``legs_done_at_submit`` declaration) serves the gathered,
        streaming and fault-capturing drivers and the async scheduler
        (S=1) — each bit-identical to the built-in serial backend.  Its legs take the
        dict path (:func:`_dict_leg.dict_plan_leg`), so a backend written
        against the dict API is held to the row-bound trainer."""
        from concurrent.futures import Future

        from repro.fl.execution import EXECUTION_BACKENDS, LegGroup

        calls = []

        @register_execution("probe-submit-only")
        class SubmitOnly(ExecutionBackend):
            legs_done_at_submit = True  # trains inline, as serial does

            def submit_group(self, trainer, active, plans, rows, uploads, attacks=None):
                calls.append(len(plans))
                futures = []
                for client, plan, row in zip(active, plans, rows):
                    result = dict_plan_leg(trainer, client, plan, uploads.layout)
                    uploads.set_state(row, result.state)
                    futures.append(Future())
                    futures[-1].set_result(result)
                return LegGroup(futures)

        assert {"run", "run_streaming", "run_streaming_captured"}.isdisjoint(
            vars(SubmitOnly)
        )
        base = tiny_config.replace(method="fedcross")
        schedules = {
            "streaming": {},
            "gathered": {},  # the oracle: backend.run, via gathered_collect
            "captured": {"leg_retries": 1, "failure_policy": "carry"},
            "async": {"round_mode": "async", "max_staleness": 1},
        }
        try:
            for label, overrides in schedules.items():
                calls.clear()
                reference = run_fit(base, **overrides)
                probe = run_fit(
                    base,
                    install=gathered_collect if label == "gathered" else None,
                    execution="probe-submit-only",
                    **overrides,
                )
                assert sum(calls) == base.rounds * base.clients_per_round, label
                assert_same_fit(reference, probe, label)
        finally:
            del EXECUTION_BACKENDS["probe-submit-only"]


class TestConfigWiring:
    def test_default_is_serial(self):
        assert FLConfig().execution == "serial"
        assert FLConfig().workers is None

    def test_invalid_execution_rejected(self):
        with pytest.raises(ValueError, match="execution"):
            FLConfig(execution="")

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            FLConfig(workers=0)

    def test_server_builds_executor_from_config(self, tiny_config):
        sim = FLSimulation(tiny_config.replace(execution="thread", workers=2))
        backend = sim.server.executor
        assert isinstance(backend, resolve_execution("thread"))
        assert backend.name == "thread" and backend.workers == 2
        assert backend.spec.lr == sim.trainer.lr
        assert backend.spec.model_factory is sim.model_factory

    def test_injected_backend_is_held_and_closed_with_the_server(self, tiny_config):
        import gc

        from repro.fl.registry import build_server

        closed = []

        class Probe(resolve_execution("serial")):
            def close(self):
                closed.append(True)

        sim = FLSimulation(tiny_config)
        probe = Probe()
        server = build_server(
            sim.config.method, sim.config, sim.fed_dataset, sim.model, sim.trainer,
            sim.clients, np.random.default_rng(0), executor=probe,
        )
        assert server.executor is probe
        server.run_round(server.select_cohort())
        del server
        gc.collect()
        assert closed == [True]

    def test_workers_validated_at_backend_build(self, tiny_config):
        with pytest.raises(ValueError, match="workers"):
            resolve_execution("thread")(workers=-1)

    def test_no_array_backend_keyword(self):
        """Client math is NumPy: no backend or spec names an array backend."""
        with pytest.raises(TypeError, match="array_backend"):
            resolve_execution("serial")(array_backend="numpy")
        assert "array_backend" not in TrainerSpec.__dataclass_fields__


class TestTrainerSpec:
    def test_from_trainer_mirrors_hyperparams(self, tiny_config):
        sim = FLSimulation(tiny_config)
        spec = TrainerSpec.from_trainer(sim.trainer, sim.model_factory)
        trainer = spec.build()
        assert trainer is not sim.trainer
        assert trainer.model is not sim.model
        assert trainer.local_epochs == sim.trainer.local_epochs
        assert trainer.batch_size == sim.trainer.batch_size
        assert trainer.lr == sim.trainer.lr

    def test_built_model_matches_template_weights(self, tiny_config):
        sim = FLSimulation(tiny_config)
        spec = TrainerSpec.from_trainer(sim.trainer, sim.model_factory)
        built = spec.build().model.state_dict()
        for key, value in sim.model.state_dict().items():
            np.testing.assert_array_equal(built[key], value)

    def test_spec_with_factory_is_picklable(self, tiny_config):
        sim = FLSimulation(tiny_config)
        spec = TrainerSpec.from_trainer(sim.trainer, sim.model_factory)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.build().model.num_parameters() == sim.model.num_parameters()

    def test_deepcopy_fallback_without_factory(self, tiny_config):
        sim = FLSimulation(tiny_config)
        spec = TrainerSpec.from_trainer(sim.trainer)
        built = spec.build()
        assert built.model is not sim.trainer.model
        for key, value in sim.model.state_dict().items():
            np.testing.assert_array_equal(built.model.state_dict()[key], value)


class TestHookSpecs:
    def test_proximal_spec_anchors_to_dispatched_state(self, tiny_config):
        from repro.tensor import functional as F  # noqa: F401 (import check)

        sim = FLSimulation(tiny_config.with_method("fedprox", mu=0.5))
        state = sim.server.global_state()
        hook = ProximalSpec(0.5).build(state)
        sim.model.load_state_dict(state)
        penalty = hook(sim.model, None, None)
        # Model equals the anchor, so the proximal penalty is exactly 0.
        assert float(penalty.item()) == 0.0

    def test_proximal_spec_mu_zero_is_inert(self, tiny_config):
        sim = FLSimulation(tiny_config)
        hook = ProximalSpec(0.0).build(sim.server.global_state())
        assert hook(sim.model, None, None) is None

    def test_specs_are_picklable(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("scaffold"))
        plans = sim.server.dispatch(sim.server.select_cohort())
        for plan in plans:
            clone = pickle.loads(pickle.dumps(plan.grad_hook))
            assert isinstance(clone, ControlVariateSpec)

    def test_fedgen_distillation_spec_survives_pickle(self, tiny_config):
        sim = FLSimulation(tiny_config.with_method("fedgen"))
        sim.server.round_idx = 1  # past warm-up
        plans = sim.server.dispatch(sim.server.select_cohort())
        spec = plans[0].loss_hook
        clone = pickle.loads(pickle.dumps(spec))
        hook = clone.build({})
        sim.model.eval()
        extra = hook(sim.model, None, None)
        assert np.isfinite(float(extra.item()))

    @pytest.mark.parametrize("method", ["fedavg", "scaffold", "fedcross"])
    def test_lossy_global_state_is_refused_at_set_global_state(self, tiny_config, method):
        """``set_global_state`` is the one state boundary on every method:
        a float64 state the float32 global row would narrow raises,
        naming the field, and leaves the deployable row untouched; a
        float32-exact float64 state is installed as float32."""
        server = FLSimulation(tiny_config.with_method(method)).server
        server.run_round(server.select_cohort())
        before = server.global_row().tobytes()
        exact = {k: v.astype(np.float64) for k, v in server.global_state().items()}
        lossy = dict(exact)
        key = sorted(lossy)[0]
        lossy[key] = lossy[key] + 1e-12
        with pytest.raises(
            ValueError, match=rf"field '{key}' \(float64\) does not survive the float32"
        ):
            server.set_global_state(lossy)
        assert server.global_row().tobytes() == before
        server.set_global_state(exact)
        state = server.global_state()
        assert all(value.dtype == np.float32 for value in state.values())
        for k, value in exact.items():
            np.testing.assert_array_equal(state[k], value)
        server.executor.close()

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda s, k: s.pop(k), r"missing \['{key}'\]"),
            (lambda s, k: s.update(extra=np.zeros(1, np.float32)), r"unexpected \['extra'\]"),
            (lambda s, k: s.update({k: s[k].reshape(-1)[:1]}), r"field '{key}' has shape"),
        ],
    )
    def test_set_global_state_refuses_keys_and_shapes_by_field(
        self, tiny_config, damage, match
    ):
        server = FLSimulation(tiny_config).server
        state = {k: v.copy() for k, v in server.global_state().items()}
        key = sorted(state)[0]
        damage(state, key)
        before = server.global_row()
        with pytest.raises(ValueError, match=match.format(key=key)):
            server.set_global_state(state)
        assert server.global_row() is before
        server.executor.close()


class TestControlVariateSpec:
    """SCAFFOLD dispatches one correction ``c - c_i`` per leg."""

    @pytest.fixture()
    def scaffold_round_two(self, tiny_config):
        """A SCAFFOLD server after one full-participation round, so
        every client's variate (and the global one) is non-zero."""
        sim = FLSimulation(tiny_config.with_method("scaffold").replace(participation=1.0))
        server = sim.server
        server.run_round(server.select_cohort())
        active = server.select_cohort()
        return server, active, server.dispatch(active)

    def test_each_plan_carries_exactly_its_correction(self, scaffold_round_two):
        server, active, plans = scaffold_round_two
        param_keys = sorted(name for name, _ in server.model.named_parameters())
        for client, plan in zip(active, plans):
            spec = plan.grad_hook
            assert list(vars(spec)) == ["correction"]
            c_local = server._c_clients[client.client_id]
            assert list(spec.correction) == param_keys
            shipped = np.concatenate([v.reshape(-1) for v in spec.correction.values()])
            assert shipped.tobytes() == (server._c_global - c_local).tobytes()
            assert np.any(shipped != 0)

    def test_hook_adds_the_correction_bit_for_bit(self, scaffold_round_two):
        server, active, plans = scaffold_round_two
        c_local = server._c_clients[active[0].client_id]
        correction = server._c_global - c_local
        hook = plans[0].grad_hook.build({})
        params = dict(server.model.named_parameters())
        rng = np.random.default_rng(0)
        grads = {
            name: rng.standard_normal(param.data.shape).astype(param.data.dtype)
            for name, param in params.items()
        }
        for name, param in params.items():
            param.grad = grads[name].copy()
        hook(params)
        for name, span, shape in server._variate_fields:
            param = params[name]
            expected = grads[name] + correction[span].reshape(shape)
            assert param.grad.dtype == expected.dtype
            assert param.grad.tobytes() == expected.tobytes()

    def test_pickled_spec_is_one_variate(self, scaffold_round_two):
        server, _, plans = scaffold_round_two
        variate_bytes = server._c_global.nbytes
        size = len(pickle.dumps(plans[0].grad_hook))
        assert variate_bytes < size < variate_bytes + 4096


class TestTrainCohort:
    def test_train_cohort_reuses_size_keyed_buffers(self, tiny_config):
        sim = FLSimulation(tiny_config)
        server = sim.server
        members = server.clients[:2]
        plans = [DispatchPlan(server.global_row()) for _ in members]
        _, buf1 = server.train_cohort(members, plans)
        _, buf2 = server.train_cohort(members, plans)
        assert buf1 is buf2
        assert len(buf1) == 2


class TestUploadState:
    """``LocalResult.state`` is a lazy view of the landed upload row:
    unread by FedCross, the trained values for whoever asks."""

    @pytest.fixture()
    def unpacked(self, monkeypatch):
        """The buffers ``PoolBuffer.as_state`` was called on."""
        buffers, original = [], PoolBuffer.as_state

        def counting(self, index, copy=False):
            buffers.append(self)
            return original(self, index, copy=copy)

        monkeypatch.setattr(PoolBuffer, "as_state", counting)
        return buffers

    @pytest.mark.parametrize("execution", ["serial", "process"])
    def test_fedcross_fit_never_unpacks_an_upload(
        self, tiny_config, unpacked, execution
    ):
        sim = FLSimulation(
            tiny_config.with_method("fedcross").replace(
                execution=execution, workers=2, rounds=2
            )
        )
        sim.run()
        sim.server.executor.close()
        assert sim.server.uploads is not None
        assert not any(buffer is sim.server.uploads for buffer in unpacked)

    def test_scaffold_reads_the_trained_values(self, tiny_config, unpacked):
        """On serial and process alike ``result.state[k]`` is what the
        dict-path oracle trains, read out of the upload row — and
        SCAFFOLD's row-native aggregate unpacks no upload itself."""
        config = tiny_config.with_method("scaffold")

        def cohort(**overrides):
            server = FLSimulation(config.replace(**overrides)).server
            active = server.select_cohort()
            return server, active, server.dispatch(active)

        server, active, plans = cohort()
        trained = [
            dict_plan_leg(server.trainer, client, plan, server._layout).state
            for client, plan in zip(active, plans)
        ]
        for overrides in ({}, {"execution": "process", "workers": 2}):
            server, active, plans = cohort(**overrides)
            results = server.collect(active, plans)
            server.aggregate(active, results, plans)
            server.executor.close()
            assert not any(buffer is server.uploads for buffer in unpacked)
            for expected, result in zip(trained, results):
                assert sorted(result.state) == sorted(expected)
                for key, value in expected.items():
                    assert result.state[key].dtype == value.dtype
                    np.testing.assert_array_equal(result.state[key], value)


class TestSharedMemoryCleanup:
    """Interrupt-safety of the /dev/shm segments a ``process`` run's
    rows live in: the server's storage family owns them, so an
    interrupted executor close, or an interpreter exiting mid-round,
    must still unlink every segment instead of leaking it until reboot."""

    @staticmethod
    def _segment_gone(name: str) -> bool:
        from multiprocessing import shared_memory

        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return True
        seg.close()
        return False

    def test_close_unlinks_segments_when_shutdown_is_interrupted(self, tiny_config):
        import gc

        before = set(os.listdir("/dev/shm"))
        sim = FLSimulation(tiny_config.replace(
            method="fedcross", execution="process", workers=2, rounds=1
        ))
        sim.server.fit()
        backend = sim.server.executor
        names = set(os.listdir("/dev/shm")) - before
        assert names, "the fit's rows live in shared memory"
        pool = backend._pool

        class InterruptedPool:
            def shutdown(self, wait=True):
                raise KeyboardInterrupt

        backend._pool = InterruptedPool()
        with pytest.raises(KeyboardInterrupt):
            backend.close()
        assert backend._pool is None
        pool.shutdown(wait=True)
        del sim, pool
        gc.collect()
        for name in names:
            assert self._segment_gone(name), name
        backend.close()  # idempotent after the interrupted attempt

    def test_a_block_alive_at_exit_is_unlinked(self):
        """An interpreter that exits holding a shared-medium storage it
        never released (a run interrupted mid-round), and a segment its
        family had recycled, unlinks both through their finalizers, and
        the resource tracker reports no leak."""
        script = (
            "import numpy as np\n"
            "from repro.core.storage import ShardedStorage, row_handle, shared_medium\n"
            "medium = shared_medium()\n"
            "live = ShardedStorage.allocate((2, 3), shards=1, medium=medium)\n"
            "spare = live.allocate_like((4, 3))\n"
            "name = row_handle(spare.row(0))[0][1]\n"
            "del spare  # back on the family's free list\n"
            "print(row_handle(live.row(0))[0][1], name, flush=True)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        names = done.stdout.split()
        assert len(names) == 2
        for name in names:
            assert self._segment_gone(name), name
        assert "leaked" not in done.stderr and "resource_tracker" not in done.stderr


class TestStreamDrain:
    """The streaming iterators' cancel-and-drain contract: when a leg
    errors (or the deadline passes), control must not leave the stream
    while any in-flight leg could still write into the reused upload
    buffer."""

    def test_stream_as_completed_drains_in_flight_on_error(self):
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor

        from repro.fl.execution import LegGroup, stream_legs

        finished = threading.Event()
        released = []

        def failing():
            raise RuntimeError("leg exploded")

        def slow():
            time.sleep(0.3)
            finished.set()
            return "late"

        def never():  # pragma: no cover - must stay queued and cancel
            raise AssertionError("cancelled leg ran")

        with ThreadPoolExecutor(max_workers=2) as pool:
            slow_f = pool.submit(slow)
            fail_f = pool.submit(failing)
            never_f = pool.submit(never)  # queued behind the two above
            group = LegGroup(
                [slow_f, fail_f, never_f], release=lambda: released.append(True)
            )
            with pytest.raises(RuntimeError, match="leg exploded"):
                for _ in stream_legs(group, [None] * 3, [0, 1, 2]):
                    pass
            # The error only propagated after the in-flight leg ran to
            # completion (drained) and the unstarted one was cancelled —
            # and every leg was accounted for, so the group released.
            assert finished.is_set()
            assert never_f.cancelled()
            assert released == [True]


def _pid_and_blas_threads():
    """Probe task: long enough that a pool's workers share the batch."""
    time.sleep(0.05)
    return os.getpid(), cpu.blas_threads()


class TestCpuBudget:
    """Process workers divide the usable cores between their BLAS pools
    (``repro.utils.cpu``): ``min(inherited, cores // workers)`` each."""

    @staticmethod
    def _backend(tiny_config, workers):
        sim = FLSimulation(tiny_config.replace(execution="process", workers=workers))
        return sim.server.executor

    def test_every_worker_reports_its_share(self, tiny_config, monkeypatch):
        monkeypatch.setattr(cpu, "usable_cores", lambda: 8)
        inherited = cpu.blas_threads()
        if inherited is None:
            pytest.skip("no known BLAS loaded in this interpreter")
        backend = self._backend(tiny_config, workers=2)
        try:
            assert backend.worker_blas_threads() == min(inherited, 4)
            probes = [backend._pool.submit(_pid_and_blas_threads) for _ in range(8)]
            seen = dict(f.result() for f in probes)
            assert len(seen) == 2, "both workers should have taken probes"
            assert set(seen.values()) == {min(inherited, cpu.blas_share(2))}
        finally:
            backend.close()

    def test_more_workers_than_cores_means_one_thread_each(
        self, tiny_config, monkeypatch
    ):
        monkeypatch.setattr(cpu, "usable_cores", lambda: 2)
        backend = self._backend(tiny_config, workers=3)
        try:
            assert backend.worker_blas_threads() in (1, None)
        finally:
            backend.close()

    def test_pool_rebuilt_by_reserve_recomputes_the_share(
        self, tiny_config, monkeypatch
    ):
        monkeypatch.setattr(cpu, "usable_cores", lambda: 8)
        inherited = cpu.blas_threads()
        if inherited is None:
            pytest.skip("no known BLAS loaded in this interpreter")
        backend = self._backend(tiny_config, workers=2)
        try:
            assert backend.worker_blas_threads() == min(inherited, 4)
            first = backend._pool
            backend.reserve(8)  # wider than the pool: rebuilt on next use
            assert backend.worker_blas_threads() == 1
            assert backend._pool is not first
        finally:
            backend.close()

    def test_coordinator_holds_what_the_workers_leave_until_close(
        self, tiny_config, monkeypatch, inherited_blas_threads
    ):
        inherited = inherited_blas_threads
        monkeypatch.setattr(cpu, "usable_cores", lambda: 8)
        backend = self._backend(tiny_config, workers=3)
        try:
            assert cpu.blas_threads() == inherited  # no pool yet: nothing owned
            assert backend.worker_blas_threads() == min(inherited, 2)
            assert cpu.blas_threads() == min(inherited, 8 - 3 * 2)
            backend.reserve(2)  # not wider: same pool, same budget
            assert cpu.blas_threads() == min(inherited, 2)
            backend.reserve(8)  # rebuilt: 8 one-thread workers leave nothing
            assert cpu.blas_threads() == inherited  # ... once they exist
            assert backend.worker_blas_threads() == 1
            assert cpu.blas_threads() == 1
        finally:
            backend.close()
        assert cpu.blas_threads() == inherited
        backend.close()  # idempotent
        assert cpu.blas_threads() == inherited

    def test_a_fit_that_raises_gives_the_width_back_on_close(
        self, tiny_config, monkeypatch, inherited_blas_threads
    ):
        inherited = inherited_blas_threads
        from repro.faults import QuorumError

        monkeypatch.setattr(cpu, "usable_cores", lambda: 8)
        sim = FLSimulation(tiny_config.replace(
            method="fedcross", execution="process", workers=2,
            faults={"dropout": 0.5}, failure_policy="carry", quorum=1.0,
        ))
        backend = sim.server.executor
        try:
            with pytest.raises(QuorumError):
                sim.server.fit()
            assert backend._pool is not None, "a leg ran before the breach"
            assert cpu.blas_threads() == 1  # 8 - 2 * 4 leaves nothing
        finally:
            sim.server.executor.close()
        assert cpu.blas_threads() == inherited
        # FLSimulation.run closes on the way out of the same exception.
        sim = FLSimulation(sim.config)
        with pytest.raises(QuorumError):
            sim.run()
        assert sim.server.executor._pool is None
        assert cpu.blas_threads() == inherited

    def test_close_interrupted_mid_shutdown_still_restores(
        self, tiny_config, monkeypatch, inherited_blas_threads
    ):
        inherited = inherited_blas_threads
        monkeypatch.setattr(cpu, "usable_cores", lambda: 8)
        backend = self._backend(tiny_config, workers=2)
        backend.worker_blas_threads()
        assert cpu.blas_threads() == 1
        pool = backend._pool

        def interrupted(wait=True):
            raise KeyboardInterrupt

        monkeypatch.setattr(pool, "shutdown", interrupted)
        try:
            with pytest.raises(KeyboardInterrupt):
                backend.close()
            assert cpu.blas_threads() == inherited
        finally:
            monkeypatch.undo()
            pool.shutdown(wait=True)

    def test_both_owners_hold_the_minimum_and_the_last_release_restores(
        self, tiny_config, monkeypatch, inherited_blas_threads
    ):
        """Distributed storage + process execution: the fleet and the
        worker pool each hold a claim; closing one changes nothing."""
        inherited = inherited_blas_threads
        from repro.distributed.cluster import get_cluster, shutdown_clusters

        monkeypatch.setattr(cpu, "usable_cores", lambda: 8)
        try:
            cluster = get_cluster(3)  # leaves 8 - 3 * 2 = 2
            assert cpu.blas_threads() == min(inherited, 2)
            backend = self._backend(tiny_config, workers=2)  # leaves 0 -> 1
            try:
                # Forked under the fleet's hold, cut from the full width.
                assert backend.worker_blas_threads() == min(inherited, 4)
                assert cpu.blas_threads() == 1
                budget = cluster.call(0, "stats")[0]["blas_threads"]
                assert budget == min(inherited, 2)
            finally:
                backend.close()
            assert cpu.blas_threads() == 1, "the fleet is still owned"
        finally:
            shutdown_clusters()
        assert cpu.blas_threads() == inherited

    def test_inherited_operator_cap_wins_over_a_wider_share(self):
        """A worker started under ``OPENBLAS_NUM_THREADS=1`` on an
        8-core budget (share 4) still runs one BLAS thread."""
        script = (
            "from repro.utils import cpu\n"
            "cpu.usable_cores = lambda: 8\n"
            "from repro.fl.config import FLConfig\n"
            "from repro.fl.simulation import FLSimulation\n"
            "config = FLConfig(method='fedavg', dataset='synth_cifar10', model='mlp',\n"
            "    num_clients=4, rounds=1, execution='process', workers=2, seed=7,\n"
            "    dataset_params={'samples_per_client': 20, 'num_test': 40})\n"
            "backend = FLSimulation(config).server.executor\n"
            "print(cpu.blas_share(2), backend.worker_blas_threads())\n"
            "backend.close()\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() in (["4", "1"], ["4", "None"])
