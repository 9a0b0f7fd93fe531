"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    One FL simulation: ``python -m repro run --method fedcross
    --dataset synth_cifar10 --model mlp --rounds 20 --beta 0.1``.
``compare``
    Several methods under shared data/init:
    ``python -m repro compare --methods fedavg,fedcross --rounds 20``.
``bench``
    Regenerate one paper artefact by name:
    ``python -m repro bench table1|table2|table3|fig3|...|fig9``.
``list``
    Show registered plugins, and method and aggregator option defaults.

``run`` and ``compare`` get one flag per :class:`repro.fl.config.FLConfig`
knob, built by walking its fields: flag, parse type, default, choices or
validating registry, help and group all come from the field's metadata,
and so does README's flag table (:func:`flag_table`); so are a method's
flagged options (FedCross's ``--alpha`` / ``--selection``), passed to
that method only when given.  A value the config rejects — a knob's own
check or a cross-field rule — is a usage error naming the flags.  Beyond
the knobs: ``--progress`` (a :class:`~repro.fl.callbacks.ThroughputLogger`),
``--early-stop-patience N`` (a
:class:`~repro.fl.callbacks.BestStateCheckpointer`) and ``--json``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import re
import sys
from dataclasses import MISSING, fields

from repro.api import compare_methods
from repro.fl.callbacks import BestStateCheckpointer, ThroughputLogger
from repro.fl.config import FLConfig, knob_error
from repro.fl.registry import available_methods, resolve_method
from repro.fl.simulation import run_simulation
from repro.utils.knobs import load

__all__ = ["main", "build_parser", "flag_table"]

#: FLConfig fields that have a flag, in declaration order, then the
#: ``(method, field)`` of each method option that has one.
_KNOBS = tuple(f for f in fields(FLConfig) if f.metadata["flag"] is not None)
_METHOD_KNOBS = tuple(
    (m, f) for m in available_methods() for f in fields(resolve_method(m).Options)
    if f.metadata["flag"] is not None
)


def _dest(f) -> str:
    return f.metadata["flag"][2:].replace("-", "_")


def _knob_type(f):
    """argparse ``type`` for knob ``f``: parse, then run the knob's own
    check (a named knob's: membership of its registry); a name is
    lowercased."""
    meta = f.metadata

    def parse(text: str):
        value = meta["type"](text)  # a ValueError reads "invalid <type> value"
        error = knob_error(f, value)
        if error is not None:
            raise argparse.ArgumentTypeError(str(error))
        return value.lower() if meta["registry"] is not None else value

    parse.__name__ = meta["type"].__name__.lstrip("_")
    return parse


def _add_config_args(parser: argparse.ArgumentParser, method: str | None) -> None:
    """One flag per knob, in argument groups; ``method=None`` leaves
    ``--method`` out (``compare`` takes ``--methods``).  Method-option
    flags default to ``None``: unset, the method's own default applies."""
    groups: dict = {}
    for f in (*_KNOBS, *(f for _, f in _METHOD_KNOBS)):
        if f.name == "method" and method is None:
            continue
        meta = f.metadata
        group = groups.get(meta["group"])
        if group is None:
            group = groups[meta["group"]] = parser.add_argument_group(meta["group"])
        default = f.default if f in _KNOBS and f.default is not MISSING else None
        group.add_argument(
            meta["flag"],
            type=_knob_type(f),
            default=method if f.name == "method" else default,
            choices=meta["choices"],
            help=meta["help"],
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FedCross reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one FL simulation")
    _add_config_args(run_p, method="fedcross")
    _add_cli_args(run_p)

    cmp_p = sub.add_parser("compare", help="compare methods on shared data")
    cmp_p.add_argument(
        "--methods", default="fedavg,fedcross", help="comma-separated method names"
    )
    _add_config_args(cmp_p, method=None)
    _add_cli_args(cmp_p)

    bench_p = sub.add_parser("bench", help="regenerate a paper table/figure")
    bench_p.add_argument(
        "artifact",
        choices=(
            "table1", "table2", "table3",
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        ),
    )
    bench_p.add_argument("--seed", type=int, default=0)

    sub.add_parser("list", help="list methods, models, datasets and backends")
    return parser


def _add_cli_args(parser: argparse.ArgumentParser) -> None:
    """The flags of ``run`` / ``compare`` that are not knobs."""
    parser.add_argument(
        "--progress",
        action="store_true",
        help="log per-round wall-clock and a throughput summary to stderr",
    )
    parser.add_argument(
        "--early-stop-patience",
        type=_positive_int,
        default=None,
        help="stop after this many non-improving evaluations and restore the best state",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _method_params(args, method: str) -> dict:
    """The options of ``method`` given as flags."""
    given = vars(args)
    return {
        f.name: given[_dest(f)]
        for m, f in _METHOD_KNOBS
        if m == method and given[_dest(f)] is not None
    }


def _configs(args) -> list[FLConfig]:
    """The FLConfig of each method the parsed knob flags run — ``run``'s
    one, or one per ``compare --methods`` entry, each carrying its
    method's options given as flags — all checked before anything trains."""
    given = vars(args)
    kwargs = {}
    for f in _KNOBS:
        dest = _dest(f)
        # An unset dict knob (flag default None) keeps its factory default.
        if dest in given and (given[dest] is not None or f.default is not MISSING):
            kwargs[f.name] = given[dest]
    methods = [kwargs.pop("method")] if args.command == "run" else args.methods.split(",")
    methods = [m.strip() for m in methods if m.strip()]
    return [FLConfig(**kwargs, method=m, method_params=_method_params(args, m)) for m in methods]


def _usage(exc: ValueError, command: str) -> str:
    """A config error prefixed by the flags of the knobs it names."""
    message = str(exc)
    flags = [
        f.metadata["flag"] for f in _KNOBS if re.search(rf"\b{f.name}\b", message)
    ]
    if command == "compare":  # compare names its methods with --methods
        flags = ["--methods" if flag == "--method" else flag for flag in flags]
    return f"argument {'/'.join(flags)}: {message}" if flags else message


def flag_table() -> str:
    """README's flag table, rendered from the knob metadata."""
    groups: dict = {}
    for f in (*_KNOBS, *(f for _, f in _METHOD_KNOBS)):
        groups.setdefault(f.metadata["group"], []).append(f)
    rows = ["| Group | Flag | Default | Effect |", "| --- | --- | --- | --- |"]
    for group, knobs in groups.items():
        for f in knobs:
            flag = f.metadata["flag"]
            if f.metadata["choices"] is not None:
                flag += " " + "\\|".join(f.metadata["choices"])
            default = "none" if f.default in (None, MISSING) else f"`{f.default}`"
            rows.append(f"| {group} | `{flag}` | {default} | {f.metadata['help']} |")
    return "\n".join(rows) + "\n"


def _callback_factory(args):
    """Zero-arg factory building fresh callbacks from the CLI flags.

    A factory (not a shared list) because the checkpointer is stateful
    and ``compare`` runs several methods back to back.
    """

    def build():
        callbacks = []
        if args.progress:
            callbacks.append(ThroughputLogger(log=functools.partial(print, file=sys.stderr)))
        if args.early_stop_patience is not None:
            callbacks.append(BestStateCheckpointer(patience=args.early_stop_patience))
        return callbacks

    return build


def _cmd_run(args, configs: list[FLConfig]) -> int:
    result = run_simulation(configs[0], callbacks=_callback_factory(args)())
    if args.json:
        print(
            json.dumps(
                {
                    "method": args.method,
                    "backend": args.backend,
                    "execution": args.execution,
                    "final_accuracy": result.final_accuracy,
                    "best_accuracy": result.best_accuracy,
                    "accuracies": result.history.accuracies,
                    "rounds": result.history.rounds,
                    "comm_params": result.history.total_comm_params(),
                }
            )
        )
    else:
        print(f"method={args.method} dataset={args.dataset} model={args.model}")
        for r, a in zip(result.history.rounds, result.history.accuracies):
            print(f"  round {r + 1:>4}: accuracy {a:.4f}")
        print(f"final={result.final_accuracy:.4f} best={result.best_accuracy:.4f}")
    return 0


def _cmd_compare(args, configs: list[FLConfig]) -> int:
    results = compare_methods(
        [config.method for config in configs],
        method_params={config.method: config.method_params for config in configs},
        base_config=configs[0] if configs else None,
        callbacks=_callback_factory(args),
    )
    if args.json:
        print(
            json.dumps(
                {
                    m: {
                        "final_accuracy": r.final_accuracy,
                        "best_accuracy": r.best_accuracy,
                        "accuracies": r.history.accuracies,
                    }
                    for m, r in results.items()
                }
            )
        )
    else:
        for m, r in results.items():
            print(f"{m:>10}: final={r.final_accuracy:.4f} best={r.best_accuracy:.4f}")
    return 0


def _cmd_bench(args) -> int:
    name = args.artifact
    module = importlib.import_module(f"repro.experiments.{name}")
    kwargs = {} if name == "table1" else {"seed": args.seed}
    if name == "table2":
        kwargs["row_set"] = "smoke"
    run = getattr(module, "run_fig5_panel" if name == "fig5" else f"run_{name}")
    print(getattr(module, f"format_{name}")(run(**kwargs)))
    return 0


def _cmd_list() -> int:
    """Each named knob's registered names (one line per registry), then
    the method and aggregator option tables with their defaults."""
    paths = {}  # registry path -> the first knob naming it
    for f in _KNOBS:
        if f.metadata["registry"] is not None:
            paths.setdefault(f.metadata["registry"], f.name)
    registries = {name: load(path) for path, name in paths.items()}
    for name, registry in registries.items():
        print(f"{name + 's:':<13}", ", ".join(registry.available()))
    for kind, table in (("method", lambda cls: cls.Options), ("aggregator", lambda cls: cls)):
        print(f"{kind} options:")
        for name in registries[kind].available():
            options = fields(table(registries[kind].resolve(name)))
            knobs = ", ".join(f"{f.name}={f.default!r}" for f in options)
            print(f"  {name:<18}", knobs or "(none)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("run", "compare"):
        try:
            configs = _configs(args)
        except ValueError as exc:
            parser.error(_usage(exc, args.command))
        return (_cmd_run if args.command == "run" else _cmd_compare)(args, configs)
    if args.command == "bench":
        return _cmd_bench(args)
    return _cmd_list()


if __name__ == "__main__":
    sys.exit(main())
