"""Loss-landscape scanning."""

import numpy as np
import pytest

from repro.analysis.landscape import (
    loss_landscape_2d,
    random_plane_directions,
    render_landscape_ascii,
    sharpness_metrics,
)
from repro.data.dataset import ArrayDataset
from repro.models import build_model
from repro.utils.rng import default_rng


@pytest.fixture
def trained_setup(rng):
    """A logreg trained to the optimum of an easy separable problem."""
    model = build_model("logreg", seed=0, input_dim=4, num_classes=3)
    centers = np.eye(3, 4) * 6
    labels = np.repeat(np.arange(3), 30)
    feats = (centers[labels] + rng.standard_normal((90, 4)) * 0.2).astype(np.float32)
    ds = ArrayDataset(feats, labels)
    from repro.fl.trainer import LocalTrainer

    trainer = LocalTrainer(model, local_epochs=20, batch_size=30, lr=0.5, momentum=0.9)
    trainer.train(trainer.row.copy(), ds, np.random.default_rng(0))
    return model, model.state_dict(), ds


class TestDirections:
    def test_filter_normalised_norms(self, rng):
        state = {"w": rng.standard_normal((4, 4)), "b": rng.standard_normal(4)}
        d1, d2 = random_plane_directions(state, rng)
        for key in state:
            np.testing.assert_allclose(
                np.linalg.norm(d1[key]), np.linalg.norm(state[key]), rtol=1e-6
            )

    def test_non_param_keys_zeroed(self, rng):
        state = {"w": rng.standard_normal(4), "running": rng.standard_normal(4)}
        d1, d2 = random_plane_directions(state, rng, param_keys={"w"})
        assert np.all(d1["running"] == 0)
        assert np.all(d2["running"] == 0)

    def test_directions_independent(self, rng):
        state = {"w": rng.standard_normal(100)}
        d1, d2 = random_plane_directions(state, rng)
        cos = d1["w"] @ d2["w"] / (np.linalg.norm(d1["w"]) * np.linalg.norm(d2["w"]))
        assert abs(cos) < 0.5

    def test_zero_weight_tensor_gets_zero_direction(self, rng):
        state = {"w": np.zeros(5)}
        d1, _ = random_plane_directions(state, rng)
        assert np.all(d1["w"] == 0)


class TestScan:
    def test_center_is_minimum_for_trained_model(self, trained_setup):
        model, state, ds = trained_setup
        scan = loss_landscape_2d(
            model, state, ds, default_rng(3), radius=1.0, grid=5
        )
        # trained optimum: centre loss must be the grid minimum (or close)
        assert scan.center_loss <= scan.losses.min() + 0.05
        assert scan.losses.shape == (5, 5)

    def test_loss_rises_with_radius(self, trained_setup):
        model, state, ds = trained_setup
        scan = loss_landscape_2d(model, state, ds, default_rng(3), radius=1.5, grid=7)
        metrics = sharpness_metrics(scan)
        assert metrics["rise_full"] > metrics["rise_half"] >= -1e-6

    def test_model_restored_after_scan(self, trained_setup):
        model, state, ds = trained_setup
        loss_landscape_2d(model, state, ds, default_rng(0), radius=0.5, grid=3)
        # scan loads perturbed states; caller must reload, but the scan
        # itself must not corrupt the passed-in state dict
        for k, v in state.items():
            assert np.isfinite(v).all()

    def test_grid_validation(self, trained_setup):
        model, state, ds = trained_setup
        with pytest.raises(ValueError):
            loss_landscape_2d(model, state, ds, default_rng(0), grid=4)

    def test_loss_at_radius(self, trained_setup):
        model, state, ds = trained_setup
        scan = loss_landscape_2d(model, state, ds, default_rng(3), radius=1.0, grid=5)
        assert scan.loss_at_radius(1.0) >= scan.center_loss - 1e-6
        with pytest.raises(ValueError):
            scan.loss_at_radius(50.0)


class TestRender:
    def test_ascii_dimensions(self, trained_setup):
        model, state, ds = trained_setup
        scan = loss_landscape_2d(model, state, ds, default_rng(3), radius=0.5, grid=5)
        text = render_landscape_ascii(scan)
        lines = text.splitlines()
        assert len(lines) == 5
        assert all(len(line) == 5 for line in lines)
