"""A trainer trains its model inside one float32 row.

After a leg every parameter and buffer of the template is a view of
``trainer.row``, and the row holds what the dict-path oracle
(:mod:`_dict_leg`: ``load_state_dict``, a per-parameter SGD loop,
``state_dict``) trains, bit for bit — with the gradients landing in
``trainer.grad_row`` and one update over the rows, or, with a grad
hook, per parameter.  The binding is redone on every leg, so a template
the server rebinds between legs (evaluation, FedGen's teacher pass)
still uploads its trained row; the gradient binding is undone after
each leg, so nothing between legs writes into ``grad_row`` or carries
it.  The optimiser is built once per trainer and reads the trainer's
settings on every leg.
"""

import copy
import pickle

import numpy as np
import pytest

from _dict_leg import dict_leg
from repro.data.dataset import ArrayDataset
from repro.fl.execution import TrainerSpec, run_leg
from repro.fl.hooks import ControlVariateSpec, ProximalSpec
from repro.fl.privacy import DPConfig, make_dp_grad_hook
from repro.fl.simulation import FLSimulation
from repro.fl.trainer import LocalTrainer
from repro.models import available_models, build_model

SHAPE = (3, 16, 16)
CLASSES = 4


def _build(name, **extra):
    """``name`` at a 3x16x16 input (images or their flat vectors), or None."""
    for size in ({"input_shape": SHAPE}, {"input_dim": int(np.prod(SHAPE))}):
        try:
            return build_model(name, seed=0, num_classes=CLASSES, **size, **extra)
        except (TypeError, ValueError):
            continue
    return None


TOKEN_MODELS = ("charlstm", "sentlstm")
CASES = [
    (name, {})
    for name in available_models()
    if name in TOKEN_MODELS or _build(name) is not None
] + [("resnet8", {"norm": "batch"}), ("vgg_mini", {"norm": "batch"})]


def _model_and_data(name, extra, n=8):
    rng = np.random.default_rng(1)
    if name in TOKEN_MODELS:
        model = build_model(name, seed=0)
        tokens = rng.integers(0, model.vocab_size, (n, 6))
        return model, ArrayDataset(tokens, rng.integers(0, 2, n))
    model = _build(name, **extra)
    images = rng.standard_normal((n, *SHAPE)).astype(np.float32)
    features = images if hasattr(model, "input_shape") else images.reshape(n, -1)
    return model, ArrayDataset(features, rng.integers(0, CLASSES, n))


def test_cases_cover_the_registered_models():
    names = {name for name, _ in CASES}
    assert {"cnn", "cnn_s", "mlp", "logreg", "resnet8", "vgg_mini", *TOKEN_MODELS} <= names


@pytest.mark.parametrize("name,extra", CASES, ids=[f"{n}{'-bn' if e else ''}" for n, e in CASES])
def test_a_leg_binds_every_field_into_the_row_and_equals_the_oracle(name, extra):
    model, ds = _model_and_data(name, extra)
    trainer = LocalTrainer(model, local_epochs=1, batch_size=4, lr=0.05, momentum=0.5)
    flat = trainer.row + np.float32(0.01)  # a dispatched row that is not the template's
    stats = trainer.train(flat, ds, np.random.default_rng(2))

    fields = [p.data for p in model.parameters()] + [b for _, b in model.named_buffers()]
    assert len(fields) == len(trainer.layout.fields)
    assert all(np.shares_memory(field, trainer.row) for field in fields)
    trained_row = trainer.row.copy()

    trained, oracle = dict_leg(
        trainer, trainer.layout.unflatten(flat), ds, np.random.default_rng(2)
    )
    assert stats == oracle
    np.testing.assert_array_equal(trained_row, trainer.layout.flatten(trained, np.float32))


def test_serial_template_uploads_its_trained_row_after_evaluate_and_teacher_pass(
    tiny_config,
):
    """FedGen's teacher pass loads states into the shared serial model,
    rebinding it to private copies; the server's evaluation binds it to
    the trainer's row, holding the global row.  Either way the next leg
    still trains inside — and uploads — the trainer's row."""
    sim = FLSimulation(tiny_config.with_method("fedgen"))
    server, trainer = sim.server, sim.trainer
    assert server.model is trainer.model
    client = sim.clients[0]

    def leg_after(between, bound):
        between()
        assert np.shares_memory(next(server.model.parameters()).data, trainer.row) == bound
        if bound:
            np.testing.assert_array_equal(trainer.row, server.global_row())
        flat = server.global_row()
        dst = np.zeros_like(flat)
        state = client.rng.bit_generator.state
        run_leg(trainer, flat, dst, client.dataset, client.rng)
        client.rng.bit_generator.state = state
        trained, _ = dict_leg(trainer, trainer.layout.unflatten(flat), client.dataset, client.rng)
        np.testing.assert_array_equal(dst, trainer.layout.flatten(trained, np.float32))
        assert not np.array_equal(dst, flat)

    leg_after(lambda: server.run_round(server.select_cohort()), bound=False)  # the teacher pass
    leg_after(server.evaluate, bound=True)


def _hooks(kind, model, state):
    """A fresh hook of ``kind`` (each call starts its own noise stream)."""
    if kind == "scaffold":  # a float64 correction widens every gradient
        rng = np.random.default_rng(3)
        correction = {
            name: rng.standard_normal(p.data.shape) * 0.1 for name, p in model.named_parameters()
        }
        return {"grad_hook": ControlVariateSpec(correction).build(state)}
    if kind == "dp":  # rebinds every .grad after a norm over them
        return {"grad_hook": make_dp_grad_hook(DPConfig(clip_norm=0.5, noise_multiplier=0.2, seed=5))}
    return {"loss_hook": ProximalSpec(mu=0.5).build(state)}


@pytest.mark.parametrize("kind", ["scaffold", "dp", "fedprox"])
@pytest.mark.parametrize("name", ["mlp", "cnn"])
def test_a_hook_leg_equals_the_oracle(name, kind):
    """Grad-hook legs update per parameter, FedProx's loss-hook legs over
    the rows (two gradients land in each parameter's view)."""
    model, ds = _model_and_data(name, {})
    trainer = LocalTrainer(model, local_epochs=2, batch_size=4, lr=0.05, momentum=0.5)
    flat = trainer.row + np.float32(0.01)
    state = trainer.layout.unflatten(flat)
    stats = trainer.train(flat, ds, np.random.default_rng(2), **_hooks(kind, model, state))
    trained_row = trainer.row.copy()
    assert trainer.optimizer._per_param == (kind != "fedprox")

    trained, oracle = dict_leg(
        trainer, state, ds, np.random.default_rng(2), **_hooks(kind, model, state)
    )
    assert stats == oracle
    np.testing.assert_array_equal(trained_row, trainer.layout.flatten(trained, np.float32))


def _unbound(model, grad_row):
    """No parameter of ``model`` carries a gradient binding or a view of ``grad_row``."""
    for param in model.parameters():
        assert "_grad_sink" not in vars(param)
        assert param.grad is None or not np.shares_memory(param.grad, grad_row)
    return True


def test_the_gradient_binding_lasts_for_the_leg_only(tiny_config):
    """After a leg, evaluation, FedGen's teacher pass, a deep copy of the
    template and a pickled trainer spec leave ``grad_row``'s bytes as
    the leg left them and carry no binding."""
    sim = FLSimulation(tiny_config.with_method("fedgen"))
    server, trainer = sim.server, sim.trainer
    server.run_round(server.select_cohort())
    client = sim.clients[0]
    flat = server.global_row()
    run_leg(trainer, flat, np.zeros_like(flat), client.dataset, client.rng)
    after_leg = trainer.grad_row.copy()
    assert after_leg.any()  # the leg's gradients landed there
    assert _unbound(trainer.model, trainer.grad_row)

    server.evaluate()
    server._train_generator([server.global_state()] * 2, np.array([1.0, 3.0]))  # teacher pass
    assert any(p.grad is not None for p in trainer.model.parameters())  # it did backprop
    clone = copy.deepcopy(trainer.model)
    rebuilt = pickle.loads(pickle.dumps(TrainerSpec.from_trainer(trainer))).build()

    assert trainer.grad_row.tobytes() == after_leg.tobytes()
    for model in (trainer.model, clone, rebuilt.model):
        assert _unbound(model, trainer.grad_row)


@pytest.mark.parametrize("execution", ["serial", "thread", "process"])
def test_live_settings_reach_the_once_built_optimizer(tiny_config, execution):
    """``sim.trainer.lr`` / ``momentum`` changed between rounds and a
    per-leg ``lr_override`` reach the optimiser every trainer builds
    once: each leg equals a trainer freshly built with those values."""
    if execution != "serial":
        tiny_config = tiny_config.replace(execution=execution, workers=2)
    sim = FLSimulation(tiny_config)
    server, trainer = sim.server, sim.trainer
    template = copy.deepcopy(trainer.model)
    try:
        for lr, momentum, override in ((0.05, 0.0, None), (0.002, 0.9, 0.3)):
            trainer.lr, trainer.momentum = lr, momentum
            active = server.select_cohort()
            plans = server.dispatch(active)
            plans[-1].lr_override = override
            legs = [(p.flat.copy(), copy.deepcopy(c.rng)) for c, p in zip(active, plans)]
            results = server.collect(active, plans)
            for client, plan, (flat, rng), result in zip(active, plans, legs, results):
                fresh = LocalTrainer(
                    copy.deepcopy(template),
                    local_epochs=trainer.local_epochs,
                    batch_size=trainer.batch_size,
                    lr=lr,
                    momentum=momentum,
                    weight_decay=trainer.weight_decay,
                )
                fresh.train(flat, client.dataset, rng, lr_override=plan.lr_override)
                np.testing.assert_array_equal(
                    trainer.layout.flatten(result.state, np.float32), fresh.row
                )
            server.aggregate(active, results, plans)
            server.round_idx += 1
    finally:
        server.executor.close()
