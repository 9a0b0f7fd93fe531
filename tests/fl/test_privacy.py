"""DP-SGD hooks: clipping, noise, calibration, end-to-end use."""

import numpy as np
import pytest

from repro.fl.privacy import DPConfig, gaussian_sigma_for, make_dp_grad_hook
from repro.nn.module import Parameter


def params_with_grads(grads):
    out = {}
    for i, g in enumerate(grads):
        p = Parameter(np.zeros_like(np.asarray(g, dtype=np.float32)))
        p.grad = np.asarray(g, dtype=np.float32)
        out[f"p{i}"] = p
    return out


class TestDPConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DPConfig(clip_norm=0.0)
        with pytest.raises(ValueError):
            DPConfig(noise_multiplier=-1.0)

    def test_repr(self):
        assert "clip=2.0" in repr(DPConfig(clip_norm=2.0))


class TestClipping:
    def test_large_gradients_clipped_to_bound(self):
        named = params_with_grads([[30.0, 40.0]])  # norm 50
        hook = make_dp_grad_hook(DPConfig(clip_norm=1.0, noise_multiplier=0.0))
        hook(named)
        total = np.sqrt(sum(float((p.grad**2).sum()) for p in named.values()))
        assert total == pytest.approx(1.0, rel=1e-5)

    def test_small_gradients_untouched(self):
        named = params_with_grads([[0.3, 0.4]])  # norm 0.5
        hook = make_dp_grad_hook(DPConfig(clip_norm=1.0, noise_multiplier=0.0))
        hook(named)
        np.testing.assert_allclose(named["p0"].grad, [0.3, 0.4], rtol=1e-6)

    def test_joint_norm_across_tensors(self):
        named = params_with_grads([[3.0], [4.0]])  # joint norm 5
        hook = make_dp_grad_hook(DPConfig(clip_norm=1.0, noise_multiplier=0.0))
        hook(named)
        total = np.sqrt(sum(float((p.grad**2).sum()) for p in named.values()))
        assert total == pytest.approx(1.0, rel=1e-5)

    def test_none_grads_skipped(self):
        p = Parameter(np.zeros(2, dtype=np.float32))
        hook = make_dp_grad_hook(DPConfig())
        hook({"p": p})  # must not raise
        assert p.grad is None


class TestNoise:
    def test_noise_perturbs_gradients(self):
        named = params_with_grads([np.zeros(1000)])
        hook = make_dp_grad_hook(DPConfig(clip_norm=1.0, noise_multiplier=0.5, seed=1))
        hook(named)
        g = named["p0"].grad
        assert np.abs(g).sum() > 0
        assert g.std() == pytest.approx(0.5, rel=0.15)

    def test_noise_deterministic_by_seed(self):
        a = params_with_grads([np.zeros(10)])
        b = params_with_grads([np.zeros(10)])
        make_dp_grad_hook(DPConfig(noise_multiplier=1.0, seed=9))(a)
        make_dp_grad_hook(DPConfig(noise_multiplier=1.0, seed=9))(b)
        np.testing.assert_array_equal(a["p0"].grad, b["p0"].grad)


class TestCalibration:
    def test_sigma_decreases_with_epsilon(self):
        assert gaussian_sigma_for(1.0, 1e-5) > gaussian_sigma_for(5.0, 1e-5)

    def test_sigma_scales_with_sensitivity(self):
        assert gaussian_sigma_for(1.0, 1e-5, 2.0) == pytest.approx(
            2 * gaussian_sigma_for(1.0, 1e-5, 1.0)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_sigma_for(0.0, 1e-5)
        with pytest.raises(ValueError):
            gaussian_sigma_for(1.0, 2.0)


class TestEndToEnd:
    def test_dp_training_still_learns(self, tiny_linear_dataset):
        """Clipping-only DP on an easy task barely hurts."""
        from repro.fl.trainer import LocalTrainer
        from repro.models import build_model

        model = build_model("mlp", seed=0, input_dim=6, num_classes=3, hidden_sizes=(16,))
        trainer = LocalTrainer(model, local_epochs=5, batch_size=16, lr=0.1, momentum=0.5)
        hook = make_dp_grad_hook(DPConfig(clip_norm=5.0, noise_multiplier=0.01, seed=0))
        result = trainer.train(
            trainer.row.copy(), tiny_linear_dataset, np.random.default_rng(0),
            grad_hook=hook,
        )
        assert result.mean_loss < np.log(3)

    def test_heavy_noise_degrades_training(self, tiny_linear_dataset):
        from repro.fl.trainer import LocalTrainer
        from repro.models import build_model

        model = build_model("mlp", seed=0, input_dim=6, num_classes=3, hidden_sizes=(16,))
        trainer = LocalTrainer(model, local_epochs=5, batch_size=16, lr=0.1, momentum=0.5)
        init = trainer.row.copy()
        clean = trainer.train(init, tiny_linear_dataset, np.random.default_rng(0))
        noisy_hook = make_dp_grad_hook(DPConfig(clip_norm=1.0, noise_multiplier=5.0, seed=0))
        noisy = trainer.train(
            init, tiny_linear_dataset, np.random.default_rng(0), grad_hook=noisy_hook
        )
        assert noisy.mean_loss > clean.mean_loss
