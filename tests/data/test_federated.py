"""Federated dataset assembly."""

import numpy as np
import pytest

from repro.data.federated import DATASET_BUILDERS, build_federated_dataset


class TestBuilder:
    def test_all_builders_produce_valid_datasets(self):
        for name in DATASET_BUILDERS.available():
            fed = build_federated_dataset(
                name, num_clients=4, heterogeneity=0.5, seed=0, num_test=30
            )
            assert fed.num_clients == 4
            assert len(fed.test) == 30
            assert fed.num_classes >= 2
            assert all(len(c) > 0 for c in fed.clients)

    @pytest.mark.parametrize("name", DATASET_BUILDERS.available())
    def test_unknown_parameter_names_key_dataset_and_accepted_set(self, name):
        with pytest.raises(ValueError) as err:
            build_federated_dataset(name, num_clients=3, num_tset=30)
        message = str(err.value)
        assert "'num_tset'" in message and name in message and "'num_test'" in message

    def test_misspelled_parameters_are_not_ignored(self):
        # the issue's example: both keys used to fall through ``kw.get``
        with pytest.raises(ValueError, match="samples_per_clinet"):
            build_federated_dataset(
                "synth_cifar10", samples_per_clinet=999, image_shap=(3, 16, 16)
            )

    def test_keys_of_another_dataset_are_rejected(self):
        with pytest.raises(ValueError, match="samples_per_client"):
            build_federated_dataset("synth_femnist", num_clients=3, samples_per_client=20)
        with pytest.raises(ValueError, match="num_classes"):
            build_federated_dataset("synth_cifar10", num_clients=3, num_classes=5)

    def test_every_declared_parameter_reaches_the_generator(self):
        """Moving any accepted key off its default changes the bytes built."""

        def fingerprint(fed):
            return [(c.features.tobytes(), c.labels.tobytes()) for c in [*fed.clients, fed.test]]

        moved = {
            "samples_per_client": 13, "num_test": 31, "image_shape": (2, 6, 6), "noise": 0.25,
            "basis_rank": 3, "label_noise": 0.1, "num_classes": 7, "samples_per_writer_mean": 25.0,
            "vocab_size": 9, "seq_len": 5, "client_deviation": 0.9, "concentration": 2.0,
            "samples_per_user_mean": 20.0,
        }
        for name in DATASET_BUILDERS.available():
            base = fingerprint(build_federated_dataset(name, num_clients=3, seed=2))
            for key in DATASET_BUILDERS.resolve(name).__kwdefaults__:
                built = build_federated_dataset(name, num_clients=3, seed=2, **{key: moved[key]})
                assert fingerprint(built) != base, (name, key)

    def test_iid_vs_dirichlet_heterogeneity_label(self):
        iid = build_federated_dataset("synth_cifar10", num_clients=4, heterogeneity="iid")
        dir_ = build_federated_dataset("synth_cifar10", num_clients=4, heterogeneity=0.5)
        assert iid.heterogeneity == "iid"
        assert dir_.heterogeneity == "dirichlet(0.5)"

    def test_natural_datasets_ignore_heterogeneity(self):
        fed = build_federated_dataset("synth_femnist", num_clients=5, heterogeneity=0.1)
        assert fed.heterogeneity == "natural"

    def test_deterministic_by_seed(self):
        a = build_federated_dataset("synth_cifar10", num_clients=4, heterogeneity=0.5, seed=11)
        b = build_federated_dataset("synth_cifar10", num_clients=4, heterogeneity=0.5, seed=11)
        np.testing.assert_array_equal(a.test.features, b.test.features)
        for ca, cb in zip(a.clients, b.clients):
            np.testing.assert_array_equal(ca.labels, cb.labels)

    def test_class_count_matrix(self):
        fed = build_federated_dataset("synth_cifar10", num_clients=5, heterogeneity="iid")
        counts = fed.class_count_matrix()
        assert counts.shape == (5, 10)
        assert counts.sum() == sum(len(c) for c in fed.clients)

    def test_client_sizes(self):
        fed = build_federated_dataset("synth_femnist", num_clients=6)
        sizes = fed.client_sizes()
        assert len(sizes) == 6
        assert (sizes > 0).all()

    def test_text_meta_has_vocab(self):
        fed = build_federated_dataset("synth_shakespeare", num_clients=3)
        assert fed.meta["vocab_size"] == fed.num_classes
        fed2 = build_federated_dataset("synth_sent140", num_clients=3)
        assert "vocab_size" in fed2.meta
        assert fed2.num_classes == 2

    def test_dataset_param_overrides(self):
        fed = build_federated_dataset(
            "synth_cifar10",
            num_clients=3,
            heterogeneity="iid",
            samples_per_client=15,
            num_test=77,
        )
        assert len(fed.test) == 77
        assert sum(len(c) for c in fed.clients) == 45
