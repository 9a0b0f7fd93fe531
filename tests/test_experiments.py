"""Experiment-harness plumbing: scale presets, printers, row specs."""

import numpy as np
import pytest

from repro.experiments.printers import format_series, format_table
from repro.experiments.scale import SCALES, resolve_scale
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import Table2Row, standard_rows
from repro.experiments.fig9 import _variant_params


class TestScale:
    def test_default_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert resolve_scale().name == "quick"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert resolve_scale().name == "full"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert resolve_scale("quick").name == "quick"

    def test_passthrough_instance(self):
        preset = SCALES["quick"]
        assert resolve_scale(preset) is preset

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            resolve_scale("galactic")

    def test_full_heavier_than_quick(self):
        q, f = SCALES["quick"], SCALES["full"]
        assert f.rounds > q.rounds
        assert f.num_clients > q.num_clients


class TestPrinters:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1.5], ["yy", 22.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "-+-" in lines[2]
        assert "22.25" in text

    def test_format_table_float_fmt(self):
        text = format_table(["v"], [[0.12345]], float_fmt="{:.4f}")
        assert "0.123" in text and len(text.splitlines()[-1].strip()) == 6

    def test_format_series_with_x(self):
        text = format_series({"m": [0.1, 0.2]}, x_values=[5, 10], title="S")
        assert "5" in text and "10" in text
        assert "0.100" in text

    def test_format_series_alignment(self):
        text = format_series({"a": [0.1], "longer": [0.2]})
        lines = text.splitlines()
        assert lines[0].index(":") == lines[1].index(":")


class TestTable1:
    def test_rows_cover_all_methods(self):
        rows = run_table1()
        assert [r.method for r in rows] == [
            "fedavg", "fedprox", "scaffold", "fedgen", "clusamp", "fedcross",
        ]

    def test_format_contains_categories(self):
        text = format_table1(run_table1())
        assert "Multi-Model Guided" in text
        assert "Knowledge Distillation" in text


class TestTable2Rows:
    def test_row_sets_sizes(self):
        assert len(standard_rows("smoke")) == 4
        assert len(standard_rows("standard")) == 13
        assert len(standard_rows("grid")) == 29  # 3*(2*4+1) + 2

    def test_unknown_row_set(self):
        with pytest.raises(KeyError):
            standard_rows("everything")

    def test_row_labels(self):
        row = Table2Row("mlp", "synth_cifar10", 0.1)
        assert row.label == ("mlp", "synth_cifar10", "b=0.1")
        assert Table2Row("mlp", "x", "iid").label[2] == "IID"
        assert Table2Row("mlp", "x", "natural").label[2] == "-"

    def test_grid_covers_all_heterogeneities(self):
        rows = standard_rows("grid")
        hets = {r.heterogeneity for r in rows}
        assert {0.1, 0.5, 1.0, "iid", "natural"} <= hets


class TestFig9Variants:
    def test_variant_params(self):
        assert _variant_params("vanilla", 0.9, 10) == {
            "alpha": 0.9, "selection": "lowest",
        }
        assert _variant_params("pm", 0.9, 10)["propeller_rounds"] == 10
        assert _variant_params("da", 0.9, 10)["dynamic_alpha_rounds"] == 10
        pm_da = _variant_params("pm_da", 0.9, 10)
        assert pm_da["propeller_rounds"] == 5
        assert pm_da["dynamic_alpha_rounds"] == 5

    def test_unknown_variant(self):
        with pytest.raises(KeyError):
            _variant_params("warp", 0.9, 10)


class TestConvergenceProbe:
    def test_three_round_losses_pinned(self):
        # The probe used to hand-roll the round loop; it is now fit()
        # with an on_round_start callback setting the decayed LR.  These
        # are the hand-rolled loop's losses for seed 0 (ISSUE 20).
        from repro.experiments.convergence import run_convergence_probe

        result = run_convergence_probe(scale="quick", seed=0, rounds=3)
        assert result.losses == [
            1.8289429473876953,
            1.4091387176513672,
            1.1471937561035157,
        ]
