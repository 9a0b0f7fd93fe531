"""A trainer trains its model inside one float32 row.

After a leg every parameter and buffer of the template is a view of
``trainer.row``, and the row holds what the dict-path oracle
(:mod:`_dict_leg`: ``load_state_dict``, the same SGD loop,
``state_dict``) trains, bit for bit.  The binding is redone on every
leg, so a template the server rebinds between legs (evaluation,
FedGen's teacher pass) still uploads its trained row.
"""

import numpy as np
import pytest

from _dict_leg import dict_leg
from repro.data.dataset import ArrayDataset
from repro.fl.execution import run_leg
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
    """The server's evaluation and FedGen's teacher pass load states into
    the shared serial model, rebinding it to private copies; the next
    leg still trains inside — and uploads — the trainer's row."""
    sim = FLSimulation(tiny_config.with_method("fedgen"))
    server, trainer = sim.server, sim.trainer
    assert server.model is trainer.model
    client = sim.clients[0]

    def rebound_by(between):
        between()
        assert not np.shares_memory(next(server.model.parameters()).data, trainer.row)
        flat = server.global_row()
        dst = np.zeros_like(flat)
        state = client.rng.bit_generator.state
        run_leg(trainer, flat, dst, client.dataset, client.rng)
        client.rng.bit_generator.state = state
        trained, _ = dict_leg(trainer, trainer.layout.unflatten(flat), client.dataset, client.rng)
        np.testing.assert_array_equal(dst, trainer.layout.flatten(trained, np.float32))
        assert not np.array_equal(dst, flat)

    rebound_by(lambda: server.run_round(server.select_cohort()))  # the teacher pass
    rebound_by(server.evaluate)
