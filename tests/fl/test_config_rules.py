"""FLConfig's knob table: cross-field rules fire at construction, and every
field is either a flagged knob or on the flag-less allowlist."""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.api import compare_methods, run_method
from repro.faults.policy import FAILURE_POLICIES
from repro.fl.config import RULES, FLConfig
from repro.utils.knobs import load
from repro.utils.registry import UnknownName

#: One violating config per rule, with the knobs its error must name.
VIOLATIONS = {
    "k_active": (dict(num_clients=4, k_active=5), ("k_active", "num_clients")),
    "execution": (dict(execution="distributed"), ("execution", "backend")),
    "process_rows": (dict(execution="process", backend="distributed"), ("execution", "backend")),
    "shards": (dict(shards=3), ("shards", "backend")),
    "hosts": (dict(backend="sharded", hosts=2), ("hosts", "backend")),
    "shard_placement": (dict(shard_placement="memmap"), ("shard_placement", "backend")),
    "max_staleness": (dict(max_staleness=3), ("max_staleness", "round_mode")),
    "async_failover": (
        dict(
            round_mode="async", max_staleness=1, backend="distributed",
            failure_policy="carry",
        ),
        ("round_mode", "max_staleness", "backend", "failure_policy"),
    ),
    "async_adapter": (
        dict(method="fedavg", round_mode="async", max_staleness=1),
        ("round_mode", "max_staleness", "method"),
    ),
    "async_screen": (
        dict(method="fedcross", round_mode="async", max_staleness=1, screen="flag"),
        ("round_mode", "max_staleness", "screen"),
    ),
    "async_aggregator": (
        dict(method="fedcross", round_mode="async", max_staleness=2, aggregator="norm_clip"),
        ("round_mode", "max_staleness", "aggregator"),
    ),
    "run_round_policy": (
        dict(method="fedcluster", leg_retries=2),
        ("method", "faults", "failure_policy", "leg_retries", "leg_timeout"),
    ),
    "screen": (dict(method="scaffold", screen="carry"), ("screen", "method")),
}

#: FLConfig fields with no command-line flag.
FLAGLESS = {"dataset_params", "model_params", "method_params"}


def test_every_rule_has_a_violation_case():
    assert sorted(knobs for knobs, _, _ in RULES) == sorted(
        knobs for _, knobs in VIOLATIONS.values()
    )


@pytest.mark.parametrize("name", sorted(VIOLATIONS))
def test_rule_fires_at_construction_naming_every_knob(name, monkeypatch):
    kwargs, knobs = VIOLATIONS[name]

    def no_dataset(*args, **kw):
        raise AssertionError("a dataset was built before the config was checked")

    monkeypatch.setattr("repro.fl.simulation.build_federated_dataset", no_dataset)
    monkeypatch.setattr("repro.api.build_federated_dataset", no_dataset)
    with pytest.raises(ValueError) as direct:
        FLConfig(**kwargs)
    method, rest = kwargs.get("method", "fedcross"), dict(kwargs)
    rest.pop("method", None)
    for entry in (run_method, lambda m, **kw: compare_methods(["fedcross", m], **kw)):
        with pytest.raises(ValueError) as via_api:
            entry(method, **rest)
        assert str(via_api.value) == str(direct.value)
    for knob in knobs:
        assert knob in str(direct.value)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(backend="sharded", shards=3, shard_placement="memmap"),
        dict(backend="distributed", shard_placement="memmap"),
        # A name in any case is its registry's name: stored lowercased
        # before RULES compare it.
        dict(backend="Sharded", shards=3),
        dict(round_mode="ASYNC", max_staleness=1, method="fedcross"),
    ],
)
def test_valid_combinations_pass(kwargs):
    config = FLConfig(**kwargs)
    for knob in NAMED:
        value = getattr(config, knob)
        assert value is None or value == value.lower(), (knob, value)


#: The knobs whose value is a name in a registry.
NAMED = (
    "method", "dataset", "model", "backend", "shard_placement", "execution", "round_mode",
    "aggregator",
)


def test_named_knobs_are_the_registry_knobs():
    assert {f.name for f in fields(FLConfig) if f.metadata["registry"]} == set(NAMED)


@pytest.mark.parametrize("knob", NAMED)
def test_unknown_name_is_refused_at_construction(knob):
    (f,) = [f for f in fields(FLConfig) if f.name == knob]
    with pytest.raises(UnknownName) as err:
        FLConfig(**{knob: "nope"})
    message = str(err.value)
    assert message.startswith(f"{knob}: unknown ") and "'nope'" in message
    assert str(load(f.metadata["registry"]).available()) in message


def test_unregistered_method_is_refused_before_any_rule_reads_it():
    with pytest.raises(UnknownName, match="method: unknown method 'nope'"):
        FLConfig(method="nope", screen="flag", leg_retries=1)


def test_lazy_names_check_without_importing_their_module():
    code = (
        "import sys; from repro.fl.config import FLConfig; "
        "FLConfig(backend='distributed', execution='distributed', hosts=2); "
        "print('repro.distributed' in sys.modules)"
    )
    src = str(Path(__file__).parents[2] / "src")
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]


def test_flagless_fields_are_allowlisted():
    flagless = {f.name for f in fields(FLConfig) if f.metadata["flag"] is None}
    assert flagless == FLAGLESS


def test_every_field_declares_its_knob():
    for f in fields(FLConfig):
        meta = f.metadata
        assert meta["help"] and meta["group"], f.name
        assert meta["flag"] is None or meta["flag"].startswith("--"), f.name


def test_failure_policy_choices_match_the_round_policy():
    (f,) = [f for f in fields(FLConfig) if f.name == "failure_policy"]
    assert f.metadata["choices"] == FAILURE_POLICIES
