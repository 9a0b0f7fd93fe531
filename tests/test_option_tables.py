"""Option tables: every method, aggregator and the fault scenario
declare their options as knobs, and one parser refuses an undeclared key
or a bad value by name, through each of its three callers.  A model's
options are its constructor's keyword arguments, refused the same way."""

from dataclasses import fields

import pytest

from repro.faults.model import FaultScenario
from repro.fl.registry import available_methods, resolve_method
from repro.fl.simulation import FLSimulation
from repro.models import available_models, build_model
from repro.robust.operators import available_operators, resolve_operator

OWNERS = [
    *(("method", m) for m in available_methods()),
    *(("aggregator", a) for a in available_operators()),
    ("faults", "fault-scenario"),
]


def _table(kind, name):
    if kind == "method":
        return resolve_method(name).Options
    return resolve_operator(name) if kind == "aggregator" else FaultScenario


def _misspelt(table) -> str:
    """A declared key minus its last letter (``num_cluster``), or
    ``alpha`` for a table that declares none."""
    names = [f.name for f in fields(table)]
    return names[0][:-1] if names else "alpha"


@pytest.mark.parametrize("kind,name", OWNERS, ids=[f"{k}-{n}" for k, n in OWNERS])
def test_misspelt_key_is_refused_naming_key_and_owner(tiny_config, kind, name):
    key = _misspelt(_table(kind, name))
    options = {key: 1}
    if kind == "method":
        config, owner = tiny_config.with_method(name, **options), f"{name} method_params"
    elif kind == "aggregator":
        config = tiny_config.replace(aggregator=name, aggregator_params=options)
        owner = f"{name} aggregator_params"
    else:
        config, owner = tiny_config.replace(faults=options), "fault-scenario"
    with pytest.raises(ValueError, match=rf"unknown {owner} key '{key}'; accepted keys: "):
        FLSimulation(config)


#: One out-of-range value per method that declares options.
BAD_VALUES = {
    "fedprox": ("mu", -1.0),
    "scaffold": ("server_lr", 0.0),
    "fedgen": ("gen_steps", -1),
    "fedcluster": ("num_clusters", 0),
    "fedcross": ("alpha", 1.0),
}


def test_every_method_with_options_has_a_bad_value_cell():
    declaring = {m for m in available_methods() if fields(resolve_method(m).Options)}
    assert declaring == set(BAD_VALUES)


@pytest.mark.parametrize("method", sorted(BAD_VALUES))
def test_bad_value_is_refused_naming_the_key(tiny_config, method):
    key, value = BAD_VALUES[method]
    with pytest.raises(ValueError, match=rf"^{method} method_params: {key} must be "):
        FLSimulation(tiny_config.with_method(method, **{key: value}))


@pytest.mark.parametrize("model", available_models())
def test_misspelt_model_params_key_is_refused_naming_model_and_key(model):
    message = rf"^unknown {model} model_params key 'hiden'; accepted keys: \["
    with pytest.raises(ValueError, match=message):
        build_model(model, hiden=3)


def test_model_params_key_is_refused_through_the_config(tiny_config):
    config = tiny_config.replace(model="mlp", model_params={"hiden": 3})
    accepted = "['hidden_sizes', 'input_dim', 'num_classes']"
    with pytest.raises(ValueError) as err:
        FLSimulation(config)
    assert str(err.value) == f"unknown mlp model_params key 'hiden'; accepted keys: {accepted}"
