"""One benchmark run in a fresh interpreter.

``run.py`` launches this file once per run, one at a time, so that
``setup_s`` includes interpreter start and ``import repro``, peak RSS is
per run, and no worker pool, shard host or BLAS state leaks between
runs.  The last line of standard output is ``E2E_RECORD <json>``.

Order matters: teardown (executor closed by ``FLSimulation.run``, shard
fleet shut down here) comes *before* accounting, because
``RUSAGE_CHILDREN`` only sees children that were reaped — an un-reaped
2-host run reported 6.7 CPU-s where the serial run of the same legs
reported 13.0.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import threading
import time

RECORD_PREFIX = "E2E_RECORD "


def child_pids() -> list[int]:
    """Live or un-reaped children of this process (resource tracker excluded)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            if ppid != me:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue  # exited while we looked
        # multiprocessing's resource tracker lives until interpreter exit
        # by design; it is not something a run can leak.
        if b"resource_tracker" not in cmdline:
            found.append(int(entry))
    return found


def listening_sockets() -> set[str]:
    found = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as handle:
                rows = handle.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "0A":
                found.add(fields[1])
    return found


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def usage() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "minor_faults": own.ru_minflt + kids.ru_minflt,
        "peak_rss_mb": (own.ru_maxrss + kids.ru_maxrss) / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--launched", type=float, required=True,
                        help="parent's time.monotonic() just before it started us")
    parser.add_argument("--mode", choices=("fit", "setup"), default="fit")
    parser.add_argument("--reference", action="store_true",
                        help="run the workload's reference config instead")
    parser.add_argument("--spans-out", default=None,
                        help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    shm_before, sockets_before = shm_segments(), listening_sockets()
    recorder = None
    if args.spans_out:
        import trace as tracing

        recorder = tracing.Recorder()

    import_start = time.perf_counter()
    if recorder is not None:
        with recorder.span("setup.import"):
            import repro.fl.simulation as simulation
    else:
        import repro.fl.simulation as simulation
    import_s = time.perf_counter() - import_start
    from repro.fl.callbacks import ServerCallback

    from workloads import WORKLOADS, attach_stragglers, build_config

    workload = WORKLOADS[args.workload]
    config = build_config(workload, args.seed, args.rounds, reference=args.reference)
    if recorder is not None:
        tracing.install(recorder, config)

    class RoundClock(ServerCallback):
        """Round-end instants, plus (traced runs) the children seen alive."""

        def __init__(self) -> None:
            self.ends: list[float] = []
            self.children: set[int] = set()

        def on_round_end(self, server, record) -> None:
            self.ends.append(time.perf_counter())
            if recorder is not None:
                self.children.update(child_pids())

    clock = RoundClock()
    sim = simulation.FLSimulation(config, callbacks=[clock])
    if workload.stragglers and not args.reference:
        attach_stragglers(sim, workload, args.seed)
    if recorder is not None:
        recorder.round_of = lambda: sim.server.round_idx
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "rounds": config.rounds,
        "reference": args.reference,
        "traced": recorder is not None,
        "setup_s": time.monotonic() - args.launched,
        "import_s": import_s,
        "k": config.clients_per_round,
        "model_size": sim.server.model_size,
    }

    if args.mode == "fit":
        before = usage()
        fit_start = time.perf_counter()
        result = sim.run()
        record["fit_s"] = time.perf_counter() - fit_start
        record["round_ends"] = [t - fit_start for t in clock.ends]
        records = result.history.records
        record["accuracies"] = [r.accuracy for r in records]
        record["losses"] = [r.loss for r in records]
        record["comm_up"] = [r.comm_up_params for r in records]
        record["comm_down"] = [r.comm_down_params for r in records]
        record["leg_failures"] = [
            {"kind": f["kind"], "attempts": f["attempts"]}
            for r in records for f in r.extras.get("leg_failures", ())
        ]
        record["suspects"] = sum(len(r.extras.get("suspect_uploads", ())) for r in records)
        info: dict = {}
        for r in records:
            for key, value in r.extras.get("async", {}).items():
                if key == "max_dispatch_staleness":
                    info[key] = max(info.get(key, 0), value)
                else:
                    info[key] = info.get(key, 0) + value
        record["async"] = info
        # Gathers the rows on remote storage, so it must precede teardown.
        matrix = sim.server.pool.matrix
        record["pool_sha256"] = hashlib.sha256(matrix.tobytes()).hexdigest()
        del result, matrix
    else:
        sim.server.executor.close()

    # -- teardown, then accounting ----------------------------------------
    if "repro.distributed.cluster" in sys.modules:
        sys.modules["repro.distributed.cluster"].shutdown_clusters()
    del sim
    gc.collect()
    record["leaks"] = {
        "shm": sorted(shm_segments() - shm_before),
        "children": child_pids(),
        "sockets": sorted(listening_sockets() - sockets_before),
    }
    if args.mode == "fit":
        after = usage()
        record["cpu_s"] = after["cpu_s"] - before["cpu_s"]
        record["minor_faults"] = after["minor_faults"] - before["minor_faults"]
        record["peak_rss_mb"] = after["peak_rss_mb"]
        record["children"] = len(clock.children)
        if recorder is not None:
            import measure

            recorder.enabled = False
            record["trace_overhead_s"] = recorder.overhead_s
            record["layers"] = measure.layer_metrics(
                workload, record, recorder.spans, recorder.counts
            )
            record["shares"] = measure.layer_shares(
                recorder.spans, coordinator=threading.get_ident()
            )
            recorder.dump(args.spans_out, {k: record[k] for k in (
                "workload", "seed", "rounds", "fit_s", "setup_s")})
    print(RECORD_PREFIX + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
