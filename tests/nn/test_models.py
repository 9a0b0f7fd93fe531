"""Model zoo: registry, shapes, training sanity."""

import numpy as np
import pytest

from repro.models import available_models, build_model
from repro.models.resnet import resnet8, resnet20
from repro.models.vgg import VGG, vgg_mini
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class TestRegistry:
    def test_expected_models_registered(self):
        names = set(available_models())
        assert {
            "cnn",
            "cnn_s",
            "resnet20",
            "resnet8",
            "vgg16",
            "vgg_mini",
            "charlstm",
            "sentlstm",
            "mlp",
            "logreg",
        } <= names

    def test_deterministic_by_seed(self):
        a = build_model("mlp", seed=3, input_dim=10, num_classes=2)
        b = build_model("mlp", seed=3, input_dim=10, num_classes=2)
        for (n1, p1), (n2, p2) in zip(a.named_parameters(), b.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_different_seeds_differ(self):
        a = build_model("mlp", seed=1, input_dim=10, num_classes=2)
        b = build_model("mlp", seed=2, input_dim=10, num_classes=2)
        diffs = [
            not np.allclose(p1.data, p2.data)
            for (_, p1), (_, p2) in zip(a.named_parameters(), b.named_parameters())
        ]
        assert any(diffs)


class TestVisionModels:
    @pytest.mark.parametrize(
        "name,shape",
        [
            ("cnn_s", (3, 8, 8)),
            ("resnet8", (3, 8, 8)),
            ("vgg_mini", (3, 8, 8)),
        ],
    )
    def test_forward_shape(self, rng, name, shape):
        model = build_model(name, seed=0, num_classes=7, input_shape=shape)
        x = Tensor(rng.standard_normal((2, *shape)).astype(np.float32))
        assert model(x).shape == (2, 7)

    def test_cnn_full_preset_on_32px(self, rng):
        model = build_model("cnn", seed=0, input_shape=(3, 32, 32), num_classes=10, width=8)
        x = Tensor(rng.standard_normal((1, 3, 32, 32)).astype(np.float32))
        assert model(x).shape == (1, 10)

    def test_cnn_rejects_bad_spatial(self):
        with pytest.raises(ValueError):
            build_model("cnn", input_shape=(3, 10, 10))

    def test_resnet20_depth(self):
        model = resnet20(input_shape=(3, 8, 8), norm="group")
        # 6n+2 with n=3: 18 convs in blocks + stem + 3 downsample projections
        conv_params = [n for n, _ in model.named_parameters() if "conv" in n or "stem" in n]
        assert len(conv_params) >= 19

    def test_resnet8_smaller_than_resnet20(self):
        assert (
            resnet8(input_shape=(3, 8, 8)).num_parameters()
            < resnet20(input_shape=(3, 8, 8), norm="group").num_parameters()
        )

    def test_resnet_norm_choice(self):
        m = resnet8(norm="group")
        names = [n for n, _ in m.named_modules()]
        assert m.num_parameters() > 0
        with pytest.raises(ValueError):
            resnet8(norm="spectral")

    def test_vgg_downsampling_guard(self):
        with pytest.raises(ValueError, match="downsamples below"):
            VGG(config=(8, "M", 8, "M", 8, "M", 8, "M"), input_shape=(3, 8, 8))

    def test_vgg_mini_trains_one_step(self, rng):
        model = vgg_mini(input_shape=(3, 8, 8), num_classes=4)
        x = Tensor(rng.standard_normal((4, 3, 8, 8)).astype(np.float32))
        loss = F.cross_entropy(model(x), np.array([0, 1, 2, 3]))
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)


class TestTextModels:
    def test_charlstm_forward(self, rng):
        model = build_model("charlstm", seed=0, vocab_size=20, hidden_size=8, embed_dim=4)
        tokens = rng.integers(0, 20, size=(3, 6))
        assert model(tokens).shape == (3, 20)

    def test_sentlstm_forward(self, rng):
        model = build_model("sentlstm", seed=0, vocab_size=30, num_classes=2, hidden_size=8)
        tokens = rng.integers(0, 30, size=(4, 5))
        assert model(tokens).shape == (4, 2)

    def test_forward_embedded_matches_forward(self, rng):
        model = build_model("charlstm", seed=0, vocab_size=15, hidden_size=8, embed_dim=4)
        tokens = rng.integers(0, 15, size=(2, 5))
        direct = model(tokens).numpy()
        embedded = model.embedding(tokens)
        via_embed = model.forward_embedded(embedded).numpy()
        np.testing.assert_allclose(direct, via_embed, rtol=1e-5)


class TestTrainability:
    @pytest.mark.parametrize("name", ["mlp", "logreg", "cnn_s"])
    def test_loss_decreases(self, rng, name):
        if name in ("mlp", "logreg"):
            model = build_model(name, seed=0, input_dim=48, num_classes=3)
            x_data = rng.standard_normal((30, 48)).astype(np.float32)
        else:
            model = build_model(name, seed=0, input_shape=(3, 4, 4), num_classes=3, width=4)
            x_data = rng.standard_normal((30, 3, 4, 4)).astype(np.float32)
        y = rng.integers(0, 3, 30)
        from repro.optim import SGD

        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        first = last = None
        for _ in range(25):
            opt.zero_grad()
            loss = F.cross_entropy(model(Tensor(x_data)), y)
            loss.backward()
            opt.step()
            last = loss.item()
            first = first if first is not None else last
        assert last < first * 0.7
