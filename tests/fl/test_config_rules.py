"""FLConfig's knob table: cross-field rules fire at construction, and every
field is either a flagged knob or on the flag-less allowlist."""

from dataclasses import fields

import pytest

from repro.api import compare_methods, run_method
from repro.faults.policy import FAILURE_POLICIES
from repro.fl.config import RULES, FLConfig

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
        # An unregistered method passes: the server registry names it.
        dict(method="nope", screen="flag", leg_retries=1),
    ],
)
def test_valid_combinations_pass(kwargs):
    FLConfig(**kwargs)


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
