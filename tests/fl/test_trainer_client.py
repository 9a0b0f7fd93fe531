"""LocalTrainer and Client behaviour."""

import numpy as np
import pytest

from _dict_leg import dict_leg
from repro.fl.client import Client
from repro.fl.trainer import LocalTrainer
from repro.models import build_model


@pytest.fixture
def setup(tiny_linear_dataset):
    model = build_model("mlp", seed=0, input_dim=6, num_classes=3, hidden_sizes=(16,))
    trainer = LocalTrainer(model, local_epochs=3, batch_size=16, lr=0.1, momentum=0.5)
    return trainer, trainer.row.copy(), tiny_linear_dataset


class TestLocalTrainer:
    def test_training_reduces_loss(self, setup, rng):
        trainer, flat0, ds = setup
        stats = trainer.train(flat0, ds, rng)
        assert stats.mean_loss < np.log(3)  # better than uniform guessing
        assert stats.num_samples == len(ds)
        assert stats.num_steps == 3 * int(np.ceil(len(ds) / 16))

    def test_returns_new_state_without_mutating_input(self, setup, rng):
        trainer, flat0, ds = setup
        frozen = flat0.copy()
        trainer.train(flat0, ds, rng)
        np.testing.assert_array_equal(flat0, frozen)
        assert not np.array_equal(trainer.row, frozen)
        assert not np.shares_memory(trainer.row, flat0)

    def test_training_is_deterministic_given_rng(self, setup):
        trainer, flat0, ds = setup
        trainer.train(flat0, ds, np.random.default_rng(3))
        first = trainer.row.copy()
        trainer.train(flat0, ds, np.random.default_rng(3))
        np.testing.assert_array_equal(trainer.row, first)

    def test_equals_the_dict_path_oracle(self, setup):
        """Row in, row out is the load / train / state_dict leg, bit for bit."""
        trainer, flat0, ds = setup
        stats = trainer.train(flat0, ds, np.random.default_rng(4))
        trained, oracle = dict_leg(
            trainer, trainer.layout.unflatten(flat0), ds, np.random.default_rng(4)
        )
        assert stats == oracle
        np.testing.assert_array_equal(trainer.row, trainer.layout.flatten(trained, np.float32))

    def test_loss_hook_affects_update(self, setup, rng):
        trainer, flat0, ds = setup
        trainer.train(flat0, ds, np.random.default_rng(0))
        plain = trainer.row.copy()

        def hook(m, logits, y):
            # heavy L2 pull toward zero changes the trajectory
            penalty = None
            for p in m.parameters():
                term = (p * p).sum()
                penalty = term if penalty is None else penalty + term
            return penalty * 10.0

        trainer.train(flat0, ds, np.random.default_rng(0), loss_hook=hook)
        assert np.abs(plain - trainer.row).max() > 1e-4

    def test_grad_hook_applied(self, setup, rng):
        trainer, flat0, ds = setup

        def zero_grads(named):
            for p in named.values():
                if p.grad is not None:
                    p.grad = np.zeros_like(p.grad)

        trainer.train(flat0, ds, rng, grad_hook=zero_grads)
        # all gradients zeroed -> no movement at all
        np.testing.assert_allclose(trainer.row, flat0, atol=1e-7)

    def test_lr_override(self, setup):
        trainer, flat0, ds = setup
        trainer.train(flat0, ds, np.random.default_rng(0))
        move_dist = np.abs(trainer.row - flat0).sum()
        trainer.train(flat0, ds, np.random.default_rng(0), lr_override=1e-12)
        frozen_dist = np.abs(trainer.row - flat0).sum()
        assert frozen_dist < move_dist * 1e-3


class TestConstruction:
    """What a float32 row cannot train is refused when the trainer is
    built, naming the field — never per leg."""

    def test_float64_field_is_refused(self):
        model = build_model("mlp", seed=0, input_dim=6, num_classes=3, hidden_sizes=(16,))
        name, param = list(model.named_parameters())[-1]
        param.data = param.data.astype(np.float64)
        with pytest.raises(ValueError, match=rf"field '{name}' is float64"):
            LocalTrainer(model)

    def test_tied_parameter_is_refused(self):
        model = build_model("mlp", seed=0, input_dim=6, num_classes=3, hidden_sizes=(16,))
        name, param = list(model.named_parameters())[0]
        model.tied = param  # one Parameter under two names
        with pytest.raises(ValueError, match=rf"field '{name}' is also registered as 'tied'"):
            LocalTrainer(model)


class TestClient:
    def test_client_holds_shard(self, tiny_linear_dataset, rng):
        client = Client(3, tiny_linear_dataset, rng)
        assert client.client_id == 3
        assert client.num_samples == len(tiny_linear_dataset)
        assert len(client) == len(tiny_linear_dataset)

    def test_class_counts(self, tiny_linear_dataset, rng):
        client = Client(0, tiny_linear_dataset, rng)
        counts = client.class_counts(3)
        assert counts.sum() == len(tiny_linear_dataset)

    def test_repr(self, tiny_linear_dataset, rng):
        assert "Client(id=2" in repr(Client(2, tiny_linear_dataset, rng))
