"""The six benchmark workloads: generated inputs only.

A workload is a seeded :class:`~repro.fl.config.FLConfig` (plus, for
``async_stragglers``, seeded per-leg delays).  The workload seed is the
only free argument; the program under test receives just the generated
config / dataset / delays.  Every workload is closed-loop by nature: a
round's next step waits on its legs.

Only ``rounds`` was tuned, to the most the driver's total run-time cap
leaves room for on the 2-core reference host: two fits per run of about
5 s each (the CNN fits take 9-13 s because a round is 2.4-3.6 s and a fit
needs three of them); every other knob is the issue's.  ``why`` lives in
``BENCHMARK.json`` and the README so it is stated once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Parallelism inside the program is pinned to the reference host's core
# count so results do not depend on where the harness happens to run.
PARALLELISM = 2

COMMON = dict(
    method="fedcross",
    dataset="synth_cifar10",
    heterogeneity=0.5,
    local_epochs=1,
    eval_every=1,
    method_params={"alpha": 0.99, "selection": "lowest"},
)

_CNN = dict(
    model="cnn",
    num_clients=20,
    k_active=10,
    batch_size=20,
    dataset_params={"samples_per_client": 60, "image_shape": (3, 16, 16)},
)
_POOL = dict(
    model="mlp",
    num_clients=100,
    k_active=50,
    batch_size=50,
    dataset_params={"samples_per_client": 50, "image_shape": (3, 16, 16)},
)
_DIST = dict(
    model="mlp",
    num_clients=40,
    k_active=20,
    dataset_params={"image_shape": (3, 16, 16)},
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``fit_seconds`` is the share of a driver run's ``--seconds`` one
    ``fit()`` is given (the run makes ``seconds // fit_seconds`` of them
    and keeps the best timing); ``target`` is the accuracy ``time_to_target_s`` / ``rounds_to_target``
    wait for, low because the fits are short; ``floor`` (robust workload
    only) is the final accuracy the robust layer must hold under attack
    on the full harness's seeds.  ``reference`` names config
    overrides of an equivalent run whose final pool must be bitwise equal
    (``None``: the reference is the workload itself, i.e. repeatability).
    """

    name: str
    config: dict
    rounds: int
    target: float
    fit_seconds: int = 3
    sync: bool = True
    fault_free: bool = True
    floor: float | None = None
    reference: dict | None = None
    stragglers: dict | None = field(default=None)

    @property
    def k(self) -> int:
        return int(self.config["k_active"])

    @property
    def rounds_in_flight(self) -> int:
        return int(self.config.get("max_staleness", 0)) + 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cnn_serial", dict(_CNN), rounds=3, target=0.12),
        Workload(
            "cnn_process",
            dict(_CNN, execution="process", workers=PARALLELISM),
            rounds=3,
            target=0.12,
            fit_seconds=5,  # a fit is 10-13 s here; three would cost 42 s a run
            reference=dict(execution="serial", workers=None),
        ),
        Workload("pool_k50", dict(_POOL), rounds=9, target=0.12),
        Workload(
            "pool_k50_robust",
            dict(
                _POOL,
                aggregator="trimmed_mean",
                aggregator_params={"trim": 0.2},
                screen="carry",
                faults={"byzantine_frac": 0.2, "attack": "sign_flip", "dropout": 0.1},
                failure_policy="carry",
                quorum=0.5,
            ),
            rounds=8,
            target=0.105,
            fault_free=False,
            floor=0.10,
        ),
        Workload(
            "dist_2host",
            dict(_DIST, backend="distributed", hosts=PARALLELISM, execution="distributed"),
            rounds=5,
            target=0.095,
            reference=dict(backend="dense", hosts=None, execution="serial"),
        ),
        Workload(
            "async_stragglers",
            dict(
                model="mlp",
                num_clients=10,
                k_active=10,
                batch_size=16,
                dataset_params={"samples_per_client": 40},
                execution="thread",
                workers=10,
                round_mode="async",
                max_staleness=2,
            ),
            rounds=50,
            target=0.20,
            fit_seconds=10,
            sync=False,
            stragglers={"slow_prob": 0.3, "slow_factor": 4.0, "base_delay_s": 0.1, "seed_offset": 7},
        ),
    )
}

SMOKE_ROUNDS = 2


def build_config(workload: Workload, seed: int, rounds: int | None = None, reference: bool = False):
    """The seeded ``FLConfig`` of ``workload`` (or of its reference run)."""
    from repro.fl.config import FLConfig

    fields = dict(COMMON, **workload.config)
    if reference and workload.reference:
        fields.update(workload.reference)
    return FLConfig(rounds=rounds or workload.rounds, seed=int(seed), **fields)


def attach_stragglers(sim, workload: Workload, seed: int) -> None:
    """Seeded wall-clock stragglers, as ``bench_client_execution.py`` does.

    The fault model decides *which* (round, client) legs are slow; a
    ``DelaySpec`` makes them slow for real.  The sleeping threads are
    simulated devices, not load.
    """
    from repro.faults import ClientPopulation
    from repro.faults.inject import DelaySpec

    spec = workload.stragglers
    server = sim.server
    population = ClientPopulation(
        {"slow_prob": spec["slow_prob"], "slow_factor": spec["slow_factor"]},
        seed=int(seed) + spec["seed_offset"],
        num_clients=server.config.num_clients,
    )
    original = server.dispatch

    def dispatch(active):
        plans = original(active)
        for client, plan in zip(active, plans):
            speed = population.leg_fault(server.round_idx, client.client_id).speed
            if speed > 1.0:
                plan.loss_hook = DelaySpec(
                    seconds=(speed - 1.0) * spec["base_delay_s"], once=True
                )
        return plans

    server.dispatch = dispatch
