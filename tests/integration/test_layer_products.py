"""The layer-product matrix, generated: every pair of layer settings.

Seven factors, each a table of levels (a level is the ``FLConfig``
fields it sets): method, storage backend, execution, round schedule,
fault scenario, aggregator and screen.  The suite enumerates every full
cell once and lets ``FLConfig`` — its ``RULES`` — say which are valid.
A pair of levels is *valid* when some valid cell holds it, *refused*
otherwise.  Then:

* ``RUN_CELLS`` is a deterministic greedy all-pairs covering set of
  valid cells: their pairs are exactly the valid pairs.  Each runs a
  short fit and holds its invariants:

  - sync, async S=0 and serial async S>0 cells land bit for bit on the
    dense / serial / sync cell with the same (method, faults,
    aggregator, screen) (``_fits.assert_same_fit``);
  - pooled async S>0 cells (legs genuinely overlap) hold the structural
    invariants: records in round order; per round, fresh ``on_upload``
    calls == landed legs == the fault record's ``ups``; ``comm_up ==
    ups·P`` and ``comm_down == downs·P`` with downs counted at
    ``submit_group``; ``max_dispatch_staleness <= S``; fresh uploads
    reach ``ceil(quorum·K)``; a finite final pool.

* ``REFUSED_CELLS`` holds each refused pair, completed with the first
  level of every other factor, plus a cell for any ``RULES`` entry no
  refused pair trips (one the product of three factors refuses).  Each
  raises ``ValueError`` at ``FLConfig(...)`` before any dataset is
  built, naming every knob of the entry that refused it; every entry
  reading knobs of two or more factors has a cell.  (Entries within one
  factor — ``shards`` without ``sharded`` — or outside the table are
  ``tests/fl/test_config_rules.py``'s.)

A new level, factor or rule is one line here: the cells follow.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from _fits import BASE, assert_same_fit, extras, run_fit
from repro.api import run_method
from repro.fl.callbacks import ServerCallback
from repro.fl.config import RULES, FLConfig
from repro.fl.simulation import FLSimulation

SCENARIOS = Path(__file__).parent.parent / "faults" / "scenarios"


def _faults(name: str, policy: str, quorum: float) -> dict:
    return dict(faults=str(SCENARIOS / name), failure_policy=policy, quorum=quorum)


#: factor -> level -> the FLConfig fields it sets; each factor's first
#: level completes a refused pair.  K = 4 (8 clients at 0.5): three
#: shards split it (1, 2, 1), two hosts (2, 2).
FACTORS = {
    "method": {m: dict(method=m) for m in ("fedcross", "fedavg", "fedcluster")},
    "backend": {
        "dense": dict(backend="dense"),
        "memmap": dict(backend="memmap"),
        "sharded": dict(backend="sharded", shards=3),
        "distributed": dict(backend="distributed", hosts=2),
    },
    "execution": {
        "serial": dict(execution="serial"),
        "thread": dict(execution="thread", workers=2),
        "process": dict(execution="process", workers=2),
        "distributed": dict(execution="distributed"),
    },
    "schedule": {
        "sync": dict(round_mode="sync"),
        **{f"async-s{s}": dict(round_mode="async", max_staleness=s) for s in (0, 1, 2)},
    },
    "faults": {
        "none": {},
        "dropouts": _faults("dropouts.json", "carry", 0.25),
        "mixed": _faults("mixed.json", "redispatch", 0.5),
        "signflip": _faults("byzantine_signflip.json", "carry", 0.5),
    },
    "aggregator": {
        a: dict(aggregator=a)
        for a in ("mean", "trimmed_mean", "coordinate_median", "norm_clip")
    },
    "screen": {"none": {}, "flag": dict(screen="flag"), "carry": dict(screen="carry")},
}
NAMES = tuple(FACTORS)
REFERENCE = dict(backend="dense", execution="serial", schedule="sync")


def _fields(cell) -> dict:
    merged = dict(BASE)
    for name, level in zip(NAMES, cell):
        merged.update(FACTORS[name][level])
    return merged


def _pairs(cell) -> set:
    return set(itertools.combinations(zip(NAMES, cell), 2))


_DEFAULTS = {
    f.name: f.default_factory() if f.default is MISSING else f.default for f in fields(FLConfig)
}


def _refused_by(cell) -> list:
    """The RULES entries ``cell`` breaks, in table order (the first is
    the one ``FLConfig`` raises), read off a namespace of its fields."""
    values = SimpleNamespace(**{**_DEFAULTS, **_fields(cell)})
    return [rule for rule in RULES if not rule[2](values)]


def _generate():
    broken = {cell: _refused_by(cell) for cell in itertools.product(*FACTORS.values())}
    valid = [cell for cell, rules in broken.items() if not rules]
    pairs = {cell: _pairs(cell) for cell in valid}
    valid_pairs = set().union(*pairs.values())
    run, uncovered = [], set(valid_pairs)
    while uncovered:  # greedy: the first cell covering the most new pairs
        best = max(valid, key=lambda cell: len(pairs[cell] & uncovered))
        run.append(best)
        uncovered -= pairs[best]
    every_pair = {
        ((a, x), (b, y))
        for a, b in itertools.combinations(NAMES, 2) for x in FACTORS[a] for y in FACTORS[b]
    }
    first = [next(iter(FACTORS[name])) for name in NAMES]
    refused = [
        tuple(dict(pair).get(name, level) for name, level in zip(NAMES, first))
        for pair in sorted(every_pair - valid_pairs)
    ]
    tripped = {id(broken[cell][0]) for cell in refused}
    for cell, rules in broken.items():  # a rule only a product of three factors trips
        if rules and id(rules[0]) not in tripped:
            refused.append(cell)
            tripped.add(id(rules[0]))
    return valid_pairs, every_pair - valid_pairs, run, refused


VALID_PAIRS, REFUSED_PAIRS, RUN_CELLS, REFUSED_CELLS = _generate()


def test_run_cells_cover_exactly_the_valid_pairs():
    covered = set().union(*map(_pairs, RUN_CELLS))
    assert covered == VALID_PAIRS
    refused = set().union(*(_pairs(cell) & REFUSED_PAIRS for cell in REFUSED_CELLS))
    assert refused == REFUSED_PAIRS


def test_every_cross_factor_rule_has_a_refused_cell():
    knobs_of = {name: set().union(*levels.values()) for name, levels in FACTORS.items()}
    cross = [
        rule for rule in RULES
        if sum(bool(knobs_of[name] & set(rule[0])) for name in NAMES) >= 2
    ]
    tripped = {id(_refused_by(cell)[0]) for cell in REFUSED_CELLS}
    assert cross and {id(rule) for rule in cross} <= tripped
    assert tripped <= {id(rule) for rule in cross}


@pytest.mark.parametrize("cell", REFUSED_CELLS, ids="-".join)
def test_refused_cell_fails_at_construction_naming_its_knobs(cell, monkeypatch):
    def no_dataset(*args, **kw):
        raise AssertionError("a dataset was built before the config was checked")

    monkeypatch.setattr("repro.fl.simulation.build_federated_dataset", no_dataset)
    monkeypatch.setattr("repro.api.build_federated_dataset", no_dataset)
    kwargs = _fields(cell)
    with pytest.raises(ValueError) as direct:
        FLConfig(**kwargs)
    with pytest.raises(ValueError) as via_api:
        run_method(**kwargs)
    knobs, requirement, _holds = _refused_by(cell)[0]
    message = str(direct.value)
    assert message == str(via_api.value)
    assert message.startswith(requirement)
    for knob in knobs:
        assert f"{knob}=" in message


def test_split_backend_levels_really_split_the_pool():
    cell = tuple(next(iter(FACTORS[name])) for name in NAMES)
    for level, bounds in (("sharded", (0, 1, 3, 4)), ("distributed", (0, 2, 4))):
        config = FLConfig(**_fields(cell[:1] + (level,) + cell[2:]))
        assert FLSimulation(config).server.pool.storage.shard_boundaries() == bounds


@pytest.fixture(scope="module")
def references():
    """The dense / serial / sync fit of a (method, faults, aggregator,
    screen), run once each."""
    cache = {}

    def reference(cell):
        ref = tuple(REFERENCE.get(name, level) for name, level in zip(NAMES, cell))
        if ref not in cache:
            cache[ref] = run_fit(_fields(ref))
            if dict(zip(NAMES, ref))["faults"] in ("dropouts", "mixed"):
                assert extras(cache[ref], "leg_failures"), ref  # the seed injects
        return cache[ref]

    return reference


class _Ledger(ServerCallback):
    """Per-round counts of one overlapped fit, from three independent
    places: the server's ``on_upload``, the backend's ``submit_group``
    (downs) and its futures (landings), and the round's fault record."""

    def __init__(self) -> None:
        self.fresh, self.downs, self.landed, self.futures = {}, {}, {}, {}
        self.owner: dict = {}  # upload buffer -> the round it was created for
        self.closed: list = []

    def install(self, server) -> None:
        model_buffer, on_upload = server._model_buffer, server.on_upload
        submit_group = server.executor.submit_group

        def buffer(tag, k):
            buf = model_buffer(tag, k)
            self.owner[id(buf)] = server.round_idx
            return buf

        def upload(row, result):
            t = server.round_idx
            self.fresh[t] = self.fresh.get(t, 0) + (result.num_samples > 0)
            on_upload(row, result)

        def submit(trainer, active, plans, rows, uploads, attacks=None):
            t = self.owner[id(uploads)]
            self.downs[t] = self.downs.get(t, 0) + len(plans)
            group = submit_group(trainer, active, plans, rows, uploads, attacks=attacks)
            self.futures.setdefault(t, []).extend(group.futures)
            return group

        server._model_buffer, server.on_upload = buffer, upload
        server.executor.submit_group = submit

    def on_round_end(self, server, record) -> None:
        faults = server.round_faults
        self.landed[record.round_idx] = sum(
            f.done() and not f.cancelled() and f.exception() is None
            for f in self.futures.get(record.round_idx, ())
        )
        required = server.fault_policy.required_legs(len(faults.active))
        self.closed.append((record, faults.ups, faults.downs, required, server.model_size))


def _assert_overlapped_invariants(config, label: str) -> None:
    ledger = _Ledger()
    result, pool = run_fit(config, install=ledger.install, callbacks=[ledger])
    records = result.history.records
    assert [r.round_idx for r in records] == list(range(config.rounds)), label
    for record, ups, downs, required, size in ledger.closed:
        t = record.round_idx
        assert ledger.fresh.get(t, 0) == ledger.landed[t] == ups, (label, t)
        assert ledger.downs.get(t, 0) == downs, (label, t)
        assert record.comm_up_params == ups * size, (label, t)
        assert record.comm_down_params == downs * size, (label, t)
        assert record.extras["async"]["max_dispatch_staleness"] <= config.max_staleness
        assert ups >= required, (label, t)
    assert len(ledger.closed) == config.rounds, label
    assert pool is not None and np.isfinite(pool).all(), label


@pytest.mark.parametrize("cell", RUN_CELLS, ids="-".join)
def test_run_cell_holds_its_invariants(cell, references):
    config = FLConfig(**_fields(cell))
    if config.max_staleness > 0 and config.execution != "serial":
        _assert_overlapped_invariants(config, "-".join(cell))
    else:
        assert_same_fit(references(cell), run_fit(config), "-".join(cell))
