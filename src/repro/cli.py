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
    Show registered methods, models, datasets and pool backends.

Flag defaults mirror :class:`repro.fl.config.FLConfig` (they are read
off a default instance, so the two can never drift): batch size 50,
20 clients, Section IV-A local-training settings.  Beyond the config
fields, the server's phased round loop is exposed through:

``--backend dense|memmap|sharded|distributed``
    Pool-storage backend for the server's model buffers
    (:mod:`repro.core.storage`); ``memmap`` keeps pools on disk for
    populations beyond RAM, ``sharded`` splits the pool into N row
    shards (``--shards``, each shard dense or memmap per
    ``--shard-placement``) so no operation ever needs the whole
    matrix as one allocation, and ``distributed`` places the row
    shards on ``--hosts`` socket-RPC worker processes
    (:mod:`repro.distributed`) — all backends are bit-identical.
``--execution serial|thread|process|distributed`` / ``--workers N``
    Client-execution backend for the collect phase
    (:mod:`repro.fl.execution`); ``process`` trains the round's clients
    on a persistent worker pool with shared-memory upload packing,
    ``distributed`` co-locates each leg with the shard host owning its
    upload row (requires ``--backend distributed``).  Histories are
    bit-identical across backends.
``--array-backend numpy|cupy|...``
    Array backend tensor math dispatches through
    (:mod:`repro.tensor.backend`); workers of the ``process``
    execution backend activate it too.  The ``numpy`` backend is
    bit-identical to direct-numpy execution; ``cupy`` registers only
    when importable.
``--faults`` / ``--quorum`` / ``--failure-policy`` / ``--leg-retries``
/ ``--leg-timeout`` / ``--leg-backoff``
    The resilience layer (:mod:`repro.faults`): a seeded client-fault
    scenario (availability churn, dropouts, stragglers — identical on
    every backend), the fresh-upload quorum a round must reach, what
    happens to failed legs (``fail`` aborts, ``carry`` keeps the stale
    middleware row, ``redispatch`` reissues once), and the bounded
    retry/timeout/backoff knobs for infrastructure failures.  Scenario
    knobs also cover the seeded adversarial client model
    (``byzantine_frac`` / ``attack`` / ``attack_scale``).
``--aggregator`` / ``--aggregator-params`` / ``--screen``
    The Byzantine-robust aggregation layer (:mod:`repro.robust`):
    which aggregation operator drives CrossAggr blends and
    GlobalModelGen (``mean`` — bitwise the reference path —
    ``trimmed_mean``, ``coordinate_median`` or ``norm_clip``, plus
    operator knobs as JSON), and whether the Gram-based anomaly
    screen flags or quarantines suspect uploads before aggregation.
``--progress``
    Attach a :class:`~repro.fl.callbacks.ThroughputLogger` printing
    per-round wall-clock and a throughput summary to stderr.
``--early-stop-patience N``
    Attach a :class:`~repro.fl.callbacks.BestStateCheckpointer`: stop
    after N non-improving evaluations and restore the best state.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from repro.api import compare_methods, run_method
from repro.data.federated import DATASET_BUILDERS
from repro.fl.callbacks import BestStateCheckpointer, ThroughputLogger
from repro.fl.config import FLConfig
from repro.fl.registry import available_methods
from repro.models.registry import available_models

__all__ = ["main", "build_parser"]

# Single source of truth for flag defaults: the config dataclass.
_DEFAULTS = FLConfig()


def _backend(value: str) -> str:
    """Validate ``--backend`` at parse time (fail fast, registry open).

    Resolved against the live backend registry rather than a static
    ``choices`` list, so third-party backends registered before CLI
    invocation remain selectable.
    """
    from repro.core.storage import resolve_backend

    try:
        resolve_backend(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc.args[0])
    return value.lower()


def _execution(value: str) -> str:
    """Validate ``--execution`` against the live execution registry."""
    from repro.fl.execution import resolve_execution

    try:
        resolve_execution(value)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0])
    return value.lower()


def _array_backend(value: str) -> str:
    """Validate ``--array-backend`` against the live array-backend registry."""
    from repro.tensor.backend import resolve_array_backend

    try:
        resolve_array_backend(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc.args[0])
    return value.lower()


def _aggregator(value: str) -> str:
    """Validate ``--aggregator`` against the live operator registry."""
    from repro.robust.operators import resolve_operator

    try:
        resolve_operator(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc.args[0])
    return value.lower()


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default=_DEFAULTS.dataset)
    parser.add_argument("--model", default=_DEFAULTS.model)
    parser.add_argument(
        "--beta",
        default=str(_DEFAULTS.heterogeneity),
        help='Dirichlet beta (float) or "iid"',
    )
    parser.add_argument("--clients", type=int, default=_DEFAULTS.num_clients)
    parser.add_argument(
        "--participation", type=float, default=_DEFAULTS.participation
    )
    parser.add_argument(
        "--k-active",
        type=int,
        default=None,
        help="absolute active-client count per round (overrides --participation)",
    )
    parser.add_argument("--rounds", type=int, default=_DEFAULTS.rounds)
    parser.add_argument("--local-epochs", type=int, default=_DEFAULTS.local_epochs)
    parser.add_argument("--batch-size", type=int, default=_DEFAULTS.batch_size)
    parser.add_argument("--lr", type=float, default=_DEFAULTS.lr)
    parser.add_argument("--momentum", type=float, default=_DEFAULTS.momentum)
    parser.add_argument("--weight-decay", type=float, default=_DEFAULTS.weight_decay)
    parser.add_argument("--eval-every", type=int, default=_DEFAULTS.eval_every)
    parser.add_argument(
        "--eval-batch-size", type=int, default=_DEFAULTS.eval_batch_size
    )
    parser.add_argument(
        "--backend",
        type=_backend,
        default=_DEFAULTS.backend,
        help=(
            'pool-storage backend: "dense" (in-memory), "memmap" '
            '(file-backed), "sharded" (row shards; see --shards) or '
            '"distributed" (row shards on socket-RPC host processes; '
            "see --hosts)"
        ),
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=_DEFAULTS.shards,
        help=(
            "row-shard count for the sharded pool backend "
            "(default: REPRO_POOL_SHARDS or 4)"
        ),
    )
    parser.add_argument(
        "--shard-placement",
        type=_backend,
        default=_DEFAULTS.shard_placement,
        help=(
            'storage medium of each row shard of the sharded (or '
            'distributed) backend: "dense" (default) or "memmap" '
            "(shards on disk — pools beyond RAM)"
        ),
    )
    parser.add_argument(
        "--hosts",
        type=_positive_int,
        default=_DEFAULTS.hosts,
        help=(
            "shard-host process count for the distributed pool backend "
            "(default: REPRO_POOL_HOSTS or 2)"
        ),
    )
    parser.add_argument(
        "--execution",
        type=_execution,
        default=_DEFAULTS.execution,
        help=(
            'client-execution backend: "serial", "thread", "process" or '
            '"distributed" (legs co-located with their upload shards; '
            "requires --backend distributed)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=_DEFAULTS.workers,
        help="worker count for parallel execution backends (default: one per usable core)",
    )
    parser.add_argument(
        "--array-backend",
        type=_array_backend,
        default=_DEFAULTS.array_backend,
        help=(
            "array backend tensor math dispatches through "
            '("numpy", "cupy" when installed, ...; default: the '
            "process-wide active backend — REPRO_ARRAY_BACKEND or numpy)"
        ),
    )
    parser.add_argument(
        "--round-mode",
        default=_DEFAULTS.round_mode,
        choices=("sync", "async"),
        help=(
            "round schedule: sync (default — each round blocks on its "
            "slowest leg) or async (bounded-staleness overlap: round t+1 "
            "dispatches while round t stragglers finish; see "
            "--max-staleness)"
        ),
    )
    parser.add_argument(
        "--max-staleness",
        type=int,
        default=_DEFAULTS.max_staleness,
        help=(
            "async round schedule's staleness bound S: at most S+1 rounds "
            "in flight, and no pool row is blended by a round older than "
            "the round that last wrote it (S=0, the default, is bitwise "
            "the sync schedule)"
        ),
    )
    parser.add_argument(
        "--faults",
        default=_DEFAULTS.faults,
        help=(
            "client-fault scenario: a JSON object of FaultScenario knobs "
            '(e.g. \'{"availability": 0.9, "dropout": 0.1}\') or a path '
            "to a scenario file; decisions are seeded and identical on "
            "every backend (default: no faults)"
        ),
    )
    parser.add_argument(
        "--quorum",
        type=float,
        default=_DEFAULTS.quorum,
        help=(
            "fraction of the cohort that must deliver fresh uploads for a "
            "round to count (default 1.0 — every leg)"
        ),
    )
    parser.add_argument(
        "--failure-policy",
        default=_DEFAULTS.failure_policy,
        choices=("fail", "carry", "redispatch"),
        help=(
            "what happens to a failed leg: abort the round (fail, the "
            "default), keep its stale middleware row (carry), or reissue "
            "it once before carrying (redispatch)"
        ),
    )
    parser.add_argument(
        "--leg-retries",
        type=int,
        default=_DEFAULTS.leg_retries,
        help="bounded retries for leg errors/timeouts (default 0)",
    )
    parser.add_argument(
        "--leg-timeout",
        type=float,
        default=_DEFAULTS.leg_timeout,
        help=(
            "wall-clock seconds to wait for in-flight legs on parallel "
            "backends before declaring the rest timed out (default: none)"
        ),
    )
    parser.add_argument(
        "--leg-backoff",
        type=float,
        default=_DEFAULTS.leg_backoff,
        help="base backoff seconds; retry i sleeps leg_backoff * 2**(i-1)",
    )
    parser.add_argument(
        "--aggregator",
        type=_aggregator,
        default=_DEFAULTS.aggregator,
        help=(
            'aggregation operator for CrossAggr blends and GlobalModelGen: '
            '"mean" (default, bitwise the reference path), "trimmed_mean", '
            '"coordinate_median" or "norm_clip" (repro.robust.operators)'
        ),
    )
    parser.add_argument(
        "--aggregator-params",
        default=None,
        help=(
            "JSON object of operator knobs, e.g. "
            '\'{"trim": 0.25}\' or \'{"clip_factor": 3.0}\''
        ),
    )
    parser.add_argument(
        "--screen",
        default=_DEFAULTS.screen,
        choices=("flag", "carry"),
        help=(
            "Gram-based anomaly screening of landed uploads: flag "
            "(record suspects in history extras) or carry (additionally "
            "quarantine flagged rows; default: off)"
        ),
    )
    parser.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    parser.add_argument("--alpha", type=float, default=0.9, help="FedCross fusion weight")
    parser.add_argument(
        "--selection",
        default="lowest",
        choices=("in_order", "highest", "lowest"),
        help="FedCross CoModelSel strategy",
    )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FedCross reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one FL simulation")
    run_p.add_argument("--method", default="fedcross")
    _add_run_args(run_p)

    cmp_p = sub.add_parser("compare", help="compare methods on shared data")
    cmp_p.add_argument(
        "--methods", default="fedavg,fedcross", help="comma-separated method names"
    )
    _add_run_args(cmp_p)

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


def _heterogeneity(value: str):
    return "iid" if value.lower() == "iid" else float(value)


def _config_kwargs(args) -> dict:
    return dict(
        dataset=args.dataset,
        model=args.model,
        heterogeneity=_heterogeneity(args.beta),
        num_clients=args.clients,
        participation=args.participation,
        k_active=args.k_active,
        rounds=args.rounds,
        local_epochs=args.local_epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        eval_every=args.eval_every,
        eval_batch_size=args.eval_batch_size,
        backend=args.backend,
        shards=args.shards,
        shard_placement=args.shard_placement,
        hosts=args.hosts,
        execution=args.execution,
        workers=args.workers,
        array_backend=args.array_backend,
        round_mode=args.round_mode,
        max_staleness=args.max_staleness,
        faults=args.faults,
        quorum=args.quorum,
        failure_policy=args.failure_policy,
        leg_timeout=args.leg_timeout,
        leg_retries=args.leg_retries,
        leg_backoff=args.leg_backoff,
        aggregator=args.aggregator,
        aggregator_params=(
            json.loads(args.aggregator_params) if args.aggregator_params else {}
        ),
        screen=args.screen,
        seed=args.seed,
    )


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


def _cmd_run(args) -> int:
    method_params = (
        {"alpha": args.alpha, "selection": args.selection}
        if args.method == "fedcross"
        else {}
    )
    result = run_method(
        args.method,
        method_params=method_params,
        callbacks=_callback_factory(args)(),
        **_config_kwargs(args),
    )
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


def _cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    results = compare_methods(
        methods,
        method_params={"fedcross": {"alpha": args.alpha, "selection": args.selection}},
        callbacks=_callback_factory(args),
        **_config_kwargs(args),
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
    from repro.experiments import (
        fig3, fig4, fig5, fig6, fig7, fig8, fig9, table1, table2, table3,
    )

    if args.artifact == "table1":
        print(table1.format_table1(table1.run_table1()))
    elif args.artifact == "table2":
        print(table2.format_table2(table2.run_table2(seed=args.seed, row_set="smoke")))
    elif args.artifact == "table3":
        print(table3.format_table3(table3.run_table3(seed=args.seed)))
    elif args.artifact == "fig3":
        print(fig3.format_fig3(fig3.run_fig3(seed=args.seed)))
    elif args.artifact == "fig4":
        print(fig4.format_fig4(fig4.run_fig4(seed=args.seed)))
    elif args.artifact == "fig5":
        print(fig5.format_fig5(fig5.run_fig5_panel(seed=args.seed)))
    elif args.artifact == "fig6":
        print(fig6.format_fig6(fig6.run_fig6(seed=args.seed)))
    elif args.artifact == "fig7":
        print(fig7.format_fig7(fig7.run_fig7(seed=args.seed)))
    elif args.artifact == "fig8":
        print(fig8.format_fig8(fig8.run_fig8(seed=args.seed)))
    elif args.artifact == "fig9":
        print(fig9.format_fig9(fig9.run_fig9(seed=args.seed)))
    return 0


def _cmd_list() -> int:
    from repro.core.storage import available_backends
    from repro.fl.execution import available_executions
    from repro.robust.operators import available_operators
    from repro.tensor.backend import available_array_backends

    print("methods:    ", ", ".join(available_methods()))
    print("models:     ", ", ".join(available_models()))
    print("datasets:   ", ", ".join(sorted(DATASET_BUILDERS)))
    print("backends:   ", ", ".join(available_backends()))
    print("execution:  ", ", ".join(available_executions()))
    print("arrays:     ", ", ".join(available_array_backends()))
    print("aggregators:", ", ".join(available_operators()))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return _cmd_list()


if __name__ == "__main__":
    sys.exit(main())
