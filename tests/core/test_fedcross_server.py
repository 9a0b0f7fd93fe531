"""FedCross server: Algorithm 1 mechanics end to end."""

import ast
import hashlib
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.fl.config import FLConfig
from repro.fl.registry import available_methods, resolve_method
from repro.fl.simulation import FLSimulation, run_simulation

# The dict-path leg (load_state_dict / SGD / state_dict).
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "fl"))
from _dict_leg import dict_leg  # noqa: E402


@pytest.fixture
def fc_config(tiny_config):
    return tiny_config.with_method("fedcross", alpha=0.8, selection="in_order")


class TestPoolMechanics:
    def test_pool_size_is_k(self, fc_config):
        sim = FLSimulation(fc_config)
        assert len(sim.server.middleware) == fc_config.clients_per_round

    def test_pool_starts_identical(self, fc_config):
        sim = FLSimulation(fc_config)
        first = sim.server.middleware[0]
        for state in sim.server.middleware[1:]:
            for k in first:
                np.testing.assert_array_equal(state[k], first[k])

    def test_pool_diverges_after_round(self, fc_config):
        sim = FLSimulation(fc_config)
        sim.server.run_round(sim.server.select_cohort())
        a, b = sim.server.middleware[0], sim.server.middleware[1]
        assert any(not np.allclose(a[k], b[k]) for k in a)

    def test_run_round_requires_k_clients(self, fc_config):
        sim = FLSimulation(fc_config)
        with pytest.raises(RuntimeError, match="exactly K"):
            sim.server.run_round(sim.clients[:1])

    def test_global_state_is_pool_mean(self, fc_config):
        sim = FLSimulation(fc_config)
        sim.server.run_round(sim.server.select_cohort())
        got = sim.server.global_state()
        pool = sim.server.middleware
        for k in got:
            expected = np.mean([s[k] for s in pool], axis=0)
            np.testing.assert_allclose(got[k], expected, rtol=1e-5, atol=1e-7)

    def test_round_extras_include_alpha_and_coindices(self, fc_config):
        sim = FLSimulation(fc_config)
        extras = sim.server.run_round(sim.server.select_cohort())
        assert extras["alpha"] == 0.8
        k = fc_config.clients_per_round
        assert sorted(extras["co_indices"]) == list(range(k))  # in-order permutation


class TestConfiguration:
    def test_invalid_alpha_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            FLSimulation(tiny_config.with_method("fedcross", alpha=1.0))

    def test_unknown_method_params_key_rejected(self, tiny_config):
        cfg = tiny_config.with_method("fedcross", alpha=0.8, selecton="highest")
        with pytest.raises(ValueError, match=r"'selecton'.*'dynamic_alpha_rounds'"):
            FLSimulation(cfg)

    @pytest.mark.parametrize(
        "params,key",
        [({"selection": "random"}, "selection"), ({"measure": "manhattan"}, "measure")],
    )
    def test_bad_option_value_names_its_key(self, tiny_config, params, key):
        with pytest.raises(ValueError, match=rf"fedcross method_params: {key} must be"):
            FLSimulation(tiny_config.with_method("fedcross", **params))

    def test_every_shipped_method_params_key_is_accepted(self):
        """Method options as the shipped callers spell them, per method:
        ``with_method("m", ...)`` keywords, ``method_params`` of an
        ``FLConfig(method="m", ...)`` call, values of a dict keyed by
        method names, item writes to an ``m_params`` dict, and (for
        FedCross) dict literals holding ``alpha`` or ``selection``."""
        root = Path(__file__).resolve().parents[2]
        files = [
            *(root / "src/repro/experiments").glob("*.py"), root / "src/repro/cli.py",
            *(root / "examples").glob("*.py"), *(root / "tools").glob("*.py"),
            root / "benchmarks/e2e/workloads.py",
        ]
        methods = available_methods()
        keys: dict = {m: set() for m in methods}

        def constant_keys(node):
            if not isinstance(node, ast.Dict):
                return set()
            return {k.value for k in node.keys if isinstance(k, ast.Constant)}

        for node in (n for f in files for n in ast.walk(ast.parse(f.read_text()))):
            if isinstance(node, ast.Dict):
                names = constant_keys(node)
                if names & {"alpha", "selection"}:
                    keys["fedcross"] |= names
                for k, v in zip(node.keys, node.values):
                    if getattr(k, "value", None) in methods:
                        keys[k.value] |= constant_keys(v)
            elif isinstance(node, ast.Call):
                given = {kw.arg: kw.value for kw in node.keywords if kw.arg}
                method = getattr(given.get("method"), "value", None)
                if method in methods:
                    keys[method] |= constant_keys(given.get("method_params"))
                if getattr(node.func, "attr", "") == "with_method":
                    method = getattr(node.args[0], "value", None)
                    if method in methods:
                        keys[method] |= set(given)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                for method in methods:
                    if f"{method}_params" in getattr(node.value, "id", ""):
                        keys[method].add(node.slice.value)
        assert {"alpha", "selection", "shuffle", "measure", "dynamic_alpha_rounds"} <= keys["fedcross"]
        assert "mu" in keys["fedprox"]
        for method, found in keys.items():
            accepted = {f.name for f in fields(resolve_method(method).Options)}
            assert found <= accepted, (method, found - accepted)

    def test_selection_strategies_all_run(self, tiny_config):
        for strategy in ("in_order", "highest", "lowest"):
            cfg = tiny_config.replace(rounds=2).with_method(
                "fedcross", alpha=0.8, selection=strategy
            )
            result = run_simulation(cfg)
            assert len(result.history) == 2

    def test_euclidean_measure_runs(self, tiny_config):
        cfg = tiny_config.replace(rounds=2).with_method(
            "fedcross", alpha=0.8, selection="lowest", measure="euclidean"
        )
        run_simulation(cfg)

    def test_k_equals_one_degenerates_gracefully(self, tiny_config):
        cfg = tiny_config.replace(num_clients=4, participation=0.25, rounds=3).with_method(
            "fedcross", alpha=0.8
        )
        assert cfg.clients_per_round == 1
        result = run_simulation(cfg)
        assert len(result.history) == 3


class TestShuffle:
    def test_shuffle_off_fixed_assignment(self, tiny_config):
        """Without shuffle the i-th middleware model trains on active[i]."""
        cfg = tiny_config.with_method("fedcross", alpha=0.8, shuffle=False)
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        for k in a.final_state:
            np.testing.assert_array_equal(a.final_state[k], b.final_state[k])

    def test_shuffle_changes_trajectories(self, tiny_config):
        on = run_simulation(tiny_config.with_method("fedcross", alpha=0.8, shuffle=True))
        off = run_simulation(tiny_config.with_method("fedcross", alpha=0.8, shuffle=False))
        assert any(
            not np.allclose(on.final_state[k], off.final_state[k])
            for k in on.final_state
        )


class TestAcceleration:
    def test_propeller_rounds_used_early(self, tiny_config):
        cfg = tiny_config.with_method(
            "fedcross", alpha=0.9, propeller_rounds=2, num_propellers=2
        )
        sim = FLSimulation(cfg)
        assert sim.server._use_propellers(0)
        assert sim.server._use_propellers(1)
        assert not sim.server._use_propellers(2)

    def test_propellers_are_refused_under_overlapped_rounds(self, tiny_config):
        # Propeller warm-up picks several collaborators per row from the
        # whole round: the server refuses it when it parses its options,
        # before a round runs (S = 0 is the sync schedule and keeps it).
        cfg = tiny_config.with_method("fedcross", propeller_rounds=2).replace(
            round_mode="async", max_staleness=1
        )
        with pytest.raises(ValueError, match="propeller_rounds=2, max_staleness=1"):
            FLSimulation(cfg)
        FLSimulation(cfg.replace(max_staleness=0))

    def test_dynamic_alpha_ramps(self, tiny_config):
        cfg = tiny_config.with_method("fedcross", alpha=0.99, dynamic_alpha_rounds=10)
        sim = FLSimulation(cfg)
        early = sim.server.alpha_at(0)
        late = sim.server.alpha_at(10)
        assert early == pytest.approx(0.5)
        assert late == pytest.approx(0.99)

    def test_pm_da_staging(self, tiny_config):
        cfg = tiny_config.with_method(
            "fedcross", alpha=0.99, propeller_rounds=3, dynamic_alpha_rounds=3
        )
        sim = FLSimulation(cfg)
        # during propeller phase alpha stays at target
        assert sim.server.alpha_at(0) == 0.99
        # afterwards the ramp continues from where the staging leaves it
        assert sim.server.alpha_at(3) < 0.99
        assert sim.server.alpha_at(6) == pytest.approx(0.99)

    def test_acceleration_variants_run_end_to_end(self, tiny_config):
        for params in (
            {"propeller_rounds": 2},
            {"dynamic_alpha_rounds": 2},
            {"propeller_rounds": 1, "dynamic_alpha_rounds": 1},
        ):
            cfg = tiny_config.replace(rounds=3).with_method(
                "fedcross", alpha=0.9, **params
            )
            result = run_simulation(cfg)
            assert len(result.history) == 3


class TestSimilarityTrend:
    def test_middleware_similarity_diagnostic(self, tiny_config):
        cfg = tiny_config.replace(rounds=4).with_method("fedcross", alpha=0.8)
        sim = FLSimulation(cfg)
        sim.server.fit()
        sim_matrix = sim.server.middleware_similarity()
        k = cfg.clients_per_round
        assert sim_matrix.shape == (k, k)
        np.testing.assert_allclose(np.diag(sim_matrix), np.ones(k), rtol=1e-6)

    def test_cross_aggregation_contracts_pool(self, tiny_config):
        """Dispersion after CrossAggr must shrink vs the uploaded pool."""
        from repro.analysis.similarity import pool_dispersion

        cfg = tiny_config.with_method("fedcross", alpha=0.8, selection="in_order")
        sim = FLSimulation(cfg)
        server = sim.server
        active = server.select_cohort()
        # reproduce the uploads manually, then compare dispersions
        uploads = [
            dict_leg(sim.trainer, server.middleware[i], c.dataset, c.rng)[0]
            for i, c in enumerate(active)
        ]
        import copy

        server2 = FLSimulation(cfg).server
        server2.middleware = [dict(s) for s in server.middleware]
        server2.run_round(active)
        disp_uploads = pool_dispersion(uploads)
        disp_pool = pool_dispersion(server2.middleware)
        # not exactly comparable (different client rng states), but the
        # aggregated pool must be far tighter than freshly trained uploads
        assert disp_pool < disp_uploads


class TestScreenWithoutTracker:
    """``screen="carry"`` where no tracker follows the uploads
    (``in_order``, ``euclidean``): the screen scores a fresh tracker's
    Gram.  Pinned by the final pool and the flagged rows of a seeded
    sign-flip run, as recorded before the fallback moved off the
    blocked-GEMM Gram."""

    CONFIG = dict(
        method="fedcross", dataset="synth_cifar10", model="logreg",
        num_clients=10, participation=1.0, local_epochs=1, batch_size=16,
        rounds=3, seed=7, screen="carry", failure_policy="carry",
        faults={"byzantine_frac": 0.2, "attack": "sign_flip"},
        dataset_params={"samples_per_client": 20, "num_test": 40},
    )
    FLAGGED = [[1, 3, 6], [0, 6, 9], [1, 5, 9]]

    @pytest.mark.parametrize(
        "params,sha",
        [
            ({"selection": "in_order"},
             "2c11bf01ed765467749b97b5883e53338c63cb71cf0d82b8a7e481f40bdbea2b"),
            ({"selection": "lowest", "measure": "euclidean"},
             "c85459b11fc50f3a3a0e3bb74a46e89a4858d95b2e0550830191095587dcf243"),
        ],
        ids=["in_order", "euclidean"],
    )
    def test_final_pool_and_flagged_rows(self, params, sha):
        sim = FLSimulation(FLConfig(**self.CONFIG, method_params={"alpha": 0.9, **params}))
        result = sim.run()
        assert sim.server._pool_gram is None
        assert [
            [s["row"] for s in r.extras.get("suspect_uploads", ())]
            for r in result.history.records
        ] == self.FLAGGED
        matrix = np.asarray(sim.server.pool.matrix)
        assert hashlib.sha256(matrix.tobytes()).hexdigest() == sha
