"""End-to-end ``fit()`` benchmark: six workloads, one command.

Two ways in, one implementation:

``run.py [--seed N] [--repeats R] [--workload NAME] [--smoke] [--check-repeat]``
    The full harness: ``R`` untraced repeats per workload, interleaved
    across workloads, then one traced run (and, where the workload has
    one, a reference run) each; prints every end-to-end metric by name
    with unit, direction, sample count and bound, then the per-layer
    table, and exits non-zero on any correctness-gate failure.

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    The driver's contract (``BENCHMARK.json``): one workload, one JSON
    object on the last line of standard output.

Every run is a fresh ``child.py`` subprocess, one at a time, with the
BLAS thread variables scrubbed from its environment.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 3  # set-ups per driver run; setup_s is their median


def fail_early(message: str) -> None:
    print(f"benchmarks/e2e: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "repro").is_dir():
    # The benchmark measures the program in src/; without it there is
    # nothing to run (the driver checks this in a bare directory).
    fail_early(f"{SRC / 'repro'} not found - run from a checkout that has src/")

import measure  # noqa: E402 - needs the guard above first
from child import RECORD_PREFIX  # noqa: E402
from workloads import PARALLELISM, SMOKE_ROUNDS, WORKLOADS  # noqa: E402


class Launcher:
    """Starts ``child.py`` runs one at a time and counts the crashes."""

    def __init__(self) -> None:
        self.env, self.scrubbed = measure.scrubbed_env(SRC)
        self.runs = 0
        self.crashed = 0

    def run(self, workload: str, seed: int, *, mode: str = "fit", rounds=None,
            reference: bool = False, spans_out: Path | None = None) -> dict | None:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
        if rounds:
            cmd += ["--rounds", str(rounds)]
        if reference:
            cmd.append("--reference")
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
        self.runs += 1
        cmd += ["--launched", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.crashed += 1
            print(f"run timed out: {' '.join(cmd)}", file=sys.stderr)
            return None
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(RECORD_PREFIX)]
        if proc.returncode != 0 or not lines:
            self.crashed += 1
            print(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        return json.loads(lines[-1][len(RECORD_PREFIX):])


def spans_path(workload: str, seed: int) -> Path:
    return RESULTS / f"spans-{workload}-seed{seed}.json"


def traced_pass(launcher: Launcher, name: str, seed: int, rounds, with_reference=True):
    """The traced run of one workload plus its reference run, if it has one."""
    traced = launcher.run(name, seed, rounds=rounds, spans_out=spans_path(name, seed))
    reference = None
    if with_reference and WORKLOADS[name].reference:
        reference = launcher.run(name, seed, rounds=rounds, reference=True)
    return traced, reference


def summarise(name: str, launcher: Launcher, fits, setups, traced, reference,
              curated_seed: bool) -> dict:
    """Metrics, gates and the failure tally of one workload's runs.

    ``curated_seed``: the full harness runs seeds on which the target is
    known to be reachable, so a miss there is a regression and counts as
    one failed operation; the driver passes seeds nobody chose, where a
    miss is a property of the input (like a seeded dropout), not a failure.
    """
    workload = WORKLOADS[name]
    fits = [f for f in fits if f is not None]
    out = {"workload": name, "e2e": None, "layers": None, "shares": None, "checks": []}
    basis = fits or ([traced] if traced else [])
    if not basis:
        return out  # every run crashed; the launcher has the count
    # Gates run over every run of the workload; the traced run counts as
    # a repeat (tracing must not change a single bit of the outputs).
    runs = fits + ([traced] if traced else [])
    checks = measure.gates(workload, runs, reference, curated_seed)
    e2e = measure.end_to_end(workload, basis, setups or [r["setup_s"] for r in basis])
    attempted, failed = measure.tally(
        runs, checks, launcher.crashed, launcher.runs,
        target_missed=curated_seed and e2e["time_to_target_s"] is None,
    )
    e2e["failed_share"] = failed / attempted
    out.update(e2e=e2e, checks=checks, attempted=attempted, failed=failed)
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_share"] = traced["trace_overhead_s"] / traced["fit_s"]
        # Per-layer values must be numbers: a target never reached is
        # reported censored, at the end of the fit.
        censored = {"time_to_target_s": e2e["fit_s"], "rounds_to_target": basis[0]["rounds"]}
        for ungated in measure.UNGATED:
            value = e2e[ungated]
            layers[ungated] = censored[ungated] if value is None else value
        out.update(layers=layers, shares=traced["shares"])
        if fits:
            out["traced_over_untraced"] = traced["fit_s"] / min(f["fit_s"] for f in fits) - 1.0
    return out


# -- the driver's contract --------------------------------------------------------
def driver_run(name: str, seed: int, seconds: int, trace: bool, bench: dict) -> int:
    launcher = Launcher()
    fits, setups, traced, reference = [], [], None, None
    if trace:
        traced, reference = traced_pass(launcher, name, seed, rounds=None)
    else:
        # Several short fits rather than one long one: timings take the
        # best, because the host's noise is one-sided (a slow first
        # round, a slow minute).
        repeats = max(1, seconds // WORKLOADS[name].fit_seconds)
        for _ in range(max(0, SETUP_SAMPLES - repeats)):
            probe = launcher.run(name, seed, mode="setup")
            if probe:
                setups.append(probe["setup_s"])
        fits = [launcher.run(name, seed) for _ in range(repeats)]
        setups += [f["setup_s"] for f in fits if f]
    summary = summarise(name, launcher, fits, setups, traced, reference, curated_seed=False)
    for check, ok, detail in summary["checks"]:
        if not ok:
            print(f"gate failed: {check}: {detail}", file=sys.stderr)
    source = summary["layers"] if trace else summary["e2e"]
    spec = bench["per_layer"] if trace else bench["end_to_end"]
    if source is None or any(source.get(m["name"]) is None for m in spec):
        print("no result: a run crashed or a metric is missing", file=sys.stderr)
        return 1
    correct = all(ok for _c, ok, _d in summary["checks"]) and launcher.crashed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0 if correct else 1


# -- the full harness ---------------------------------------------------------------
def full_set(names, seed: int, repeats: int, smoke: bool) -> dict[str, dict]:
    """One set of the full harness: summaries by workload."""
    rounds = SMOKE_ROUNDS if smoke else None
    launchers = {name: Launcher() for name in names}
    fits = {name: [] for name in names}
    # Interleaved, so a slow minute on the host hits every workload's
    # repeat r rather than all repeats of one workload.
    for _ in range(repeats):
        for name in names:
            fits[name].append(launchers[name].run(name, seed, rounds=rounds))
    summaries = {}
    for name in names:
        traced, reference = traced_pass(launchers[name], name, seed, rounds,
                                        with_reference=not smoke)
        summaries[name] = summarise(name, launchers[name], fits[name], [], traced, reference,
                                    curated_seed=True)
        summaries[name]["crashed"] = launchers[name].crashed
    return summaries


ARROW = {"lower": "v", "higher": "^"}


def print_report(summaries: dict, bench: dict, repeats: int) -> None:
    gated = {m["name"]: m for m in bench["end_to_end"]}
    table = dict(gated, **measure.UNGATED)
    layer_spec = {m["name"]: m for m in bench["per_layer"]}
    for name, summary in summaries.items():
        e2e = summary["e2e"]
        print(f"\n== {name} ==")
        if e2e is None:
            print("  every run crashed")
            continue
        print(f"  {'end-to-end metric':<24}{'value':>16} {'unit':<9}{'dir':<4}{'n':>4}  bound")
        for metric, spec in table.items():
            samples = e2e["round_samples"] if metric == "round_s_p50" else repeats
            value = e2e[metric]
            shown = "null" if value is None else f"{value:.6g}"
            bound = bound_of(spec, WORKLOADS[name])
            gate = "" if metric in gated else "  (not gated by the driver)"
            print(f"  {metric:<24}{shown:>16} {spec['unit']:<9}{ARROW[spec['better']]:<4}"
                  f"{samples:>4}  {'-' if bound is None else format(bound, 'g')}{gate}")
        for check, ok, detail in summary["checks"]:
            print(f"  gate {'ok  ' if ok else 'FAIL'} {check}: {detail}")
        layers = summary["layers"]
        if layers is None:
            continue
        print(f"  {'per-layer metric (traced run)':<44}{'value':>14} unit")
        for metric in layer_spec:
            if metric in measure.UNGATED:
                continue
            value = layers[metric]
            if value:
                print(f"  {metric:<44}{value:>14.6g} {layer_spec[metric]['unit']}")
        if "traced_over_untraced" in summary:
            print(f"  traced fit_s / best untraced fit_s - 1 = {summary['traced_over_untraced']:+.3f}")
        shares = sorted(summary["shares"].items(), key=lambda kv: -kv[1])
        print("  coordinator self-time shares of fit(): "
              + ", ".join(f"{layer} {share:.2f}" for layer, share in shares if share >= 0.005))


def worse_by(spec: dict, first, second) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first is None or second is None:
        return 0.0 if first == second else float("inf")
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    delta = (second - first) / abs(first)
    return delta if spec["better"] == "lower" else -delta


def bound_of(spec: dict, workload) -> float | None:
    if not workload.sync and "async_bound" in spec:
        return spec["async_bound"]
    return spec["bound"]


def check_repeat(first: dict, second: dict, bench: dict) -> list[str]:
    """Metrics on which two sets of the same code disagree beyond their bound."""
    table = dict({m["name"]: m for m in bench["end_to_end"]}, **measure.UNGATED)
    problems = []
    for name in first:
        a, b = first[name]["e2e"], second[name]["e2e"]
        if a is None or b is None:
            problems.append(f"{name}: a set has no result")
            continue
        for metric, spec in table.items():
            bound = bound_of(spec, WORKLOADS[name])
            if bound is None:
                continue  # reported only
            # Either set may be the unlucky one, so test both directions.
            gap = max(worse_by(spec, a[metric], b[metric]), worse_by(spec, b[metric], a[metric]))
            if gap > bound:
                problems.append(
                    f"{name}.{metric}: {a[metric]} vs {b[metric]} differ by "
                    f"{gap:.3f} > bound {bound:g}"
                )
    return problems


def full_run(args, bench: dict) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    repeats = 1 if args.smoke else args.repeats
    scrubbed = measure.scrubbed_env(SRC)[1]
    env_before = measure.environment(scrubbed)
    summaries = full_set(names, args.seed, repeats, args.smoke)
    print_report(summaries, bench, repeats)
    failed = [f"{name}: gate {check}" for name, s in summaries.items()
              for check, ok, _d in s["checks"] if not ok]
    failed += [f"{name}: {s['crashed']} run(s) crashed" for name, s in summaries.items()
               if s["crashed"]]
    if args.check_repeat:
        second = full_set(names, args.seed, repeats, args.smoke)
        problems = check_repeat(summaries, second, bench)
        print("\n== check-repeat ==")
        print("\n".join(problems) if problems else
              "two sets agree on every end-to-end metric within its bound")
        failed += problems
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"e2e-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    with open(out, "w") as handle:
        json.dump({
            "seed": args.seed, "repeats": repeats, "smoke": args.smoke,
            "parallelism": {"workers": PARALLELISM, "hosts": PARALLELISM},
            "environment_before": env_before,
            "environment_after": measure.environment(scrubbed),
            "workloads": summaries,
        }, handle, indent=1)
    print(f"\nresults: {out.relative_to(ROOT)}")
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_ROUNDS} rounds per workload, no repeats, no reference runs")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two full sets; fail if a metric differs beyond its bound")
    parser.add_argument("--seconds", type=int, help="driver mode: seconds to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: 0 end-to-end metrics, 1 per-layer metrics")
    args = parser.parse_args(argv)
    bench = measure.load_benchmark()
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return driver_run(args.workload, args.seed, args.seconds or bench["run_seconds"],
                          bool(args.trace), bench)
    return full_run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
