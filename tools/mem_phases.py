#!/usr/bin/env python
"""Resident memory of one benchmark workload, phase by phase.

``python tools/mem_phases.py --workload cnn_serial --seed 0``

Runs one ``benchmarks/e2e/workloads.py`` workload in a fresh child
interpreter, under the harness's allocator policy
(``benchmarks/e2e/measure.py::ALLOCATOR_POLICY``) and with the BLAS
thread variables removed, as the driver runs it; the harness is read,
never changed.  The child prints its ``VmRSS`` / ``VmHWM`` after set-up
and after every ``dispatch`` / ``start_collect`` / ``collect`` /
``aggregate`` / ``evaluate`` of the fit, and beside them the
``RssAnon`` / ``RssShmem`` / ``VmHWM`` of its live children (``process``
workers, shard hosts), all in MB from ``/proc``.  A child's ``VmHWM`` is
what the harness's ``peak_rss_mb`` charges for it (``RUSAGE_CHILDREN``
``ru_maxrss`` is the largest reaped child's high-water).  ``--replace``
takes a JSON object of ``FLConfig`` fields to override (a smaller model,
fewer clients).  Standard library only; Linux only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "benchmarks" / "e2e"
PHASES = ("dispatch", "start_collect", "collect", "aggregate", "evaluate")


def _status(pid: "int | str", fields: tuple[str, ...]) -> dict[str, float]:
    """``fields`` of ``/proc/<pid>/status`` in MB (absent ones omitted)."""
    out = {}
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            name, _, value = line.partition(":")
            if name in fields:
                out[name] = int(value.split()[0]) / 1024.0
    return out


def _line(phase: str, round_idx: "int | str", child_pids) -> str:
    own = _status("self", ("VmRSS", "VmHWM"))
    kids = []
    for pid in child_pids():
        try:
            mem = _status(pid, ("RssAnon", "RssShmem", "VmHWM"))
        except OSError:
            continue  # exited while we looked
        kids.append(f"{pid}:" + "/".join(
            f"{mem.get(name, 0.0):.1f}" for name in ("RssAnon", "RssShmem", "VmHWM")
        ))
    return (f"{phase:<14}{round_idx!s:>6}{own['VmRSS']:>10.1f}{own['VmHWM']:>10.1f}  "
            + " ".join(kids))


def child(args) -> int:
    """In the fresh interpreter: build the workload, wrap the phases, fit."""
    sys.path.insert(0, str(HARNESS))
    from child import child_pids  # the harness's own child listing
    from workloads import WORKLOADS, build_config

    import repro.fl.simulation as simulation

    config = build_config(WORKLOADS[args.workload], args.seed, args.rounds)
    if args.replace:
        config = config.replace(**json.loads(args.replace))
    sim = simulation.FLSimulation(config)
    server = sim.server
    print(f"{'phase':<14}{'round':>6}{'VmRSS':>10}{'VmHWM':>10}  "
          "children pid:RssAnon/RssShmem/VmHWM (MB)", flush=True)
    print(_line("setup", "-", child_pids), flush=True)

    def wrap(name):
        # On the class that defines the phase, so the sync driver still
        # sees no override and pipelines as the harness's run does.
        owner = next(c for c in type(server).__mro__ if name in c.__dict__)
        fn = owner.__dict__[name]

        def phase(self, *a, **kw):
            out = fn(self, *a, **kw)
            print(_line(name, self.round_idx, child_pids), flush=True)
            return out

        setattr(owner, name, phase)

    for name in PHASES:
        wrap(name)
    try:
        sim.run()
    finally:
        server.executor.close()
        if "repro.distributed.cluster" in sys.modules:
            sys.modules["repro.distributed.cluster"].shutdown_clusters()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--replace", default=None, metavar="JSON",
                        help="FLConfig fields to override, as a JSON object")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    sys.path.insert(0, str(HARNESS))
    from measure import scrubbed_env  # the driver's run environment

    env, _ = scrubbed_env(ROOT / "src")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.rounds is not None:
        cmd += ["--rounds", str(args.rounds)]
    if args.replace:
        cmd += ["--replace", args.replace]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
