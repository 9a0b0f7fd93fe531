"""CLI entry points (direct main() calls; no subprocess overhead)."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.fl.config import FLConfig


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.method == "fedcross"
        assert args.beta == "iid"

    def test_bench_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "table99"])

    def test_unknown_backend_fails_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "gpu"])
        err = capsys.readouterr().err
        assert "unknown pool backend" in err and "sharded" in err

    def test_shards_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--shards", "0"])

    def test_unknown_aggregator_fails_at_parse_time(self, capsys):
        # Same parse-time parity as --backend: the registry error (with
        # every valid operator) surfaces straight from argparse.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--aggregator", "krum"])
        err = capsys.readouterr().err
        assert "unknown aggregation operator" in err and "trimmed_mean" in err

    def test_aggregator_and_screen_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.aggregator == "mean"
        assert args.screen is None

    def test_screen_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--screen", "purge"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fedcross" in out
        assert "resnet20" in out
        assert "synth_cifar10" in out
        assert "aggregators:" in out and "coordinate_median" in out

    def test_list_shows_each_option_table_with_its_defaults(self, capsys):
        assert main(["list"]) == 0
        rows = {
            line.split()[0]: line.split(None, 1)[1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        }
        assert rows["fedprox"] == "mu=0.01"
        assert rows["fedcross"].startswith("alpha=0.99, selection='lowest', measure='cosine'")
        assert rows["fedavg"] == rows["clusamp"] == rows["mean"] == "(none)"
        assert rows["trimmed_mean"] == "clip_factor=3.0, trim=0.25"

    def test_run_json(self, capsys):
        code = main(
            [
                "run",
                "--method", "fedavg",
                "--clients", "4",
                "--rounds", "2",
                "--local-epochs", "1",
                "--eval-every", "1",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "fedavg"
        assert len(payload["accuracies"]) == 2

    def test_run_human_readable(self, capsys):
        main(
            [
                "run",
                "--method", "fedcross",
                "--clients", "4",
                "--rounds", "2",
                "--local-epochs", "1",
                "--eval-every", "1",
                "--alpha", "0.8",
            ]
        )
        out = capsys.readouterr().out
        assert "final=" in out
        assert "round" in out

    def test_run_robust_aggregation_json(self, capsys):
        code = main(
            [
                "run",
                "--method", "fedcross",
                "--clients", "4",
                "--rounds", "2",
                "--local-epochs", "1",
                "--eval-every", "1",
                "--aggregator", "trimmed_mean",
                "--aggregator-params", '{"trim": 0.2}',
                "--screen", "flag",
                "--faults", '{"byzantine_frac": 0.25, "attack": "sign_flip"}',
                "--failure-policy", "carry",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["accuracies"]) == 2

    def test_compare_json(self, capsys):
        code = main(
            [
                "compare",
                "--methods", "fedavg,fedcross",
                "--clients", "4",
                "--rounds", "2",
                "--local-epochs", "1",
                "--eval-every", "1",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"fedavg", "fedcross"}

    @pytest.mark.parametrize(
        "flags", [["--screen", "flag"], ["--round-mode", "async", "--max-staleness", "1"]]
    )
    def test_compare_checks_the_listed_methods_not_a_default(self, flags, capsys):
        argv = ["compare", "--methods", "fedcross", "--clients", "4", "--rounds", "2"]
        assert main([*argv, "--local-epochs", "1", "--json", *flags]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {"fedcross"}

    @pytest.mark.parametrize("placement", [None, "memmap"])
    def test_run_sharded_backend_json(self, capsys, placement):
        argv = [
            "run",
            "--method", "fedcross",
            "--clients", "4",
            "--participation", "1.0",
            "--rounds", "2",
            "--local-epochs", "1",
            "--eval-every", "1",
            "--backend", "sharded",
            "--shards", "3",
            "--json",
        ]
        if placement is not None:
            argv += ["--shard-placement", placement]
        code = main(argv)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "sharded"
        assert len(payload["accuracies"]) == 2

    def test_bench_table1(self, capsys):
        assert main(["bench", "table1"]) == 0
        assert "Comm. Overhead" in capsys.readouterr().out

    def test_bench_fig3(self, capsys):
        assert main(["bench", "fig3"]) == 0
        assert "Dir(0.1)" in capsys.readouterr().out

    def test_beta_parsing(self, capsys):
        code = main(
            [
                "run",
                "--method", "fedavg",
                "--beta", "0.5",
                "--clients", "4",
                "--rounds", "2",
                "--local-epochs", "1",
                "--eval-every", "1",
                "--json",
            ]
        )
        assert code == 0


class TestAsyncRoundMode:
    def test_round_mode_defaults_and_choices(self):
        args = build_parser().parse_args(["run"])
        assert args.round_mode == "sync"
        assert args.max_staleness == 0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--round-mode", "overlapped"])

    def test_run_async_json_smoke(self, capsys):
        code = main(
            [
                "run",
                "--method", "fedcross",
                "--clients", "4",
                "--rounds", "2",
                "--local-epochs", "1",
                "--eval-every", "1",
                "--round-mode", "async",
                "--max-staleness", "1",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "fedcross"
        assert len(payload["accuracies"]) == 2


#: The ``run`` / ``compare`` option strings and defaults recorded from the
#: hand-written parser this one replaced.  The only intended differences
#: are ``--alpha`` / ``--selection`` (0.9 / "lowest" there), now unset so
#: FedCross's own defaults apply.
_SHARED_SURFACE = {
    "--aggregator": "mean", "--aggregator-params": None, "--alpha": None,
    "--backend": "dense", "--batch-size": 50,
    "--beta": "iid", "--clients": 20, "--dataset": "synth_cifar10",
    "--early-stop-patience": None, "--eval-batch-size": 256, "--eval-every": 1,
    "--execution": "serial", "--failure-policy": "fail", "--faults": None,
    "--hosts": None, "--json": False, "--k-active": None, "--leg-backoff": 0.05,
    "--leg-retries": 0, "--leg-timeout": None, "--local-epochs": 5, "--lr": 0.01,
    "--max-staleness": 0, "--model": "mlp", "--momentum": 0.5,
    "--participation": 0.5, "--progress": False, "--quorum": 1.0,
    "--round-mode": "sync", "--rounds": 20, "--screen": None, "--seed": 0,
    "--selection": None, "--shard-placement": None, "--shards": None,
    "--weight-decay": 0.0, "--workers": None,
}
_SURFACE = {
    "run": {**_SHARED_SURFACE, "--method": "fedcross"},
    "compare": {**_SHARED_SURFACE, "--methods": "fedavg,fedcross"},
}


def _surface(command):
    import argparse

    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        action.option_strings[0]: action.default
        for action in sub.choices[command]._actions
        if action.option_strings and action.dest != "help"
    }


class TestFlagSurface:
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_option_strings_and_defaults_unchanged(self, command):
        assert _surface(command) == _SURFACE[command]

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_fedcross_keeps_its_own_defaults(self, command, monkeypatch):
        from repro.core.fedcross import FedCrossServer

        built = []
        init = FedCrossServer.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append((self.alpha, self.selector.strategy))

        monkeypatch.setattr(FedCrossServer, "__init__", spy)
        argv = ["--clients", "4", "--rounds", "1", "--local-epochs", "1", "--json"]
        if command == "compare":
            argv += ["--methods", "fedcross"]
        assert main([command, *argv]) == 0
        assert built == [(0.99, "lowest")]

    def test_readme_flag_table_is_generated(self):
        from pathlib import Path

        from repro.cli import flag_table

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        begin, end = "<!-- flag-table:begin -->\n", "<!-- flag-table:end -->"
        block = readme[readme.index(begin) + len(begin):readme.index(end)]
        assert block == flag_table(), (
            "README flag table is stale; regenerate it with "
            "repro.cli.flag_table()"
        )


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--quorum", "2"], "--quorum"),
            (["--leg-retries", "-1"], "--leg-retries"),
            (["--aggregator-params", "{bad"], "--aggregator-params"),
            (["--execution", "distributed"], "--execution"),
        ],
    )
    def test_bad_knob_is_a_usage_error_naming_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--rounds", "1", *argv])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        named = re.search(r"error: argument (\S+):", err)
        assert named and flag in named.group(1).split("/"), err

    @pytest.mark.parametrize(
        "argv,flags",
        [
            (["run", "--method", "fedavg", "--round-mode", "async", "--max-staleness", "1"],
             ["--method", "--round-mode", "--max-staleness"]),
            (["run", "--round-mode", "async", "--max-staleness", "1", "--screen", "flag"],
             ["--round-mode", "--max-staleness", "--screen"]),
            (["run", "--round-mode", "async", "--max-staleness", "2",
              "--aggregator", "trimmed_mean"], ["--round-mode", "--max-staleness", "--aggregator"]),
            (["run", "--method", "fedavg", "--screen", "carry"], ["--method", "--screen"]),
            (["compare", "--methods", "fedcross,fedprox", "--screen", "flag"],
             ["--methods", "--screen", "'fedprox'"]),
        ],
    )
    def test_refused_product_exits_2_before_any_data(self, argv, flags, capsys, monkeypatch):
        def no_dataset(*args, **kw):
            raise AssertionError("a dataset was built before the configs were checked")

        monkeypatch.setattr("repro.fl.simulation.build_federated_dataset", no_dataset)
        monkeypatch.setattr("repro.api.build_federated_dataset", no_dataset)
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--rounds", "1"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        named = re.search(r"error: argument (\S+):", err)
        assert named and all(flag in err for flag in flags), err
        assert set(f for f in flags if f.startswith("--")) <= set(named.group(1).split("/"))

    @pytest.mark.parametrize(
        "argv,flag,available",
        [
            (["run", "--dataset", "nope"], "--dataset", "synth_cifar10"),
            (["run", "--model", "nope"], "--model", "mlp"),
            (["run", "--method", "nope"], "--method", "fedavg"),
            (["compare", "--methods", "fedavg,nope"], "--methods", "fedcross"),
        ],
    )
    def test_unknown_name_exits_2_naming_flag_name_and_options(
        self, argv, flag, available, capsys
    ):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--rounds", "1"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        named = re.search(r"error: argument (\S+):", err)
        assert named and flag in named.group(1).split("/"), err
        assert "'nope'" in err and available in err, err

    def test_array_backend_knob_is_gone(self, capsys):
        """Client math is NumPy: there is no array-backend flag or field."""
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--rounds", "1", "--array-backend", "numpy"])
        assert exit_.value.code == 2
        assert "--array-backend" in capsys.readouterr().err
        with pytest.raises(TypeError, match="array_backend"):
            FLConfig(array_backend="numpy")
