"""CoModelSel: the three strategies and similarity measures."""

import numpy as np
import pytest
from _selection_oracle import reference_select_by_similarity, reference_similarity_matrix

from repro.core.pool import PoolBuffer
from repro.core.selection import (
    CoModelSel,
    cosine_similarity,
    euclidean_similarity,
    select_highest_similarity,
    select_in_order,
    select_lowest_similarity,
    similarity_matrix,
)


def states_from_vectors(vectors):
    return [{"w": np.asarray(v, dtype=np.float64)} for v in vectors]


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_opposite_vectors(self):
        v = np.array([1.0, 0.0])
        assert cosine_similarity(v, -v) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_zero_vector_safe(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_scale_invariance(self, rng):
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(5 * a, 0.1 * b))


class TestEuclidean:
    def test_identical_is_max(self):
        v = np.ones(4)
        assert euclidean_similarity(v, v) == 0.0
        assert euclidean_similarity(v, v + 1) < 0.0

    def test_ordering(self):
        a = np.zeros(3)
        near, far = np.full(3, 0.1), np.full(3, 5.0)
        assert euclidean_similarity(a, near) > euclidean_similarity(a, far)


class TestInOrder:
    def test_paper_formula(self):
        # (i + (r % (K-1) + 1)) % K
        assert select_in_order(0, 0, 4) == 1
        assert select_in_order(0, 1, 4) == 2
        assert select_in_order(3, 0, 4) == 0
        assert select_in_order(2, 2, 4) == (2 + (2 % 3 + 1)) % 4

    def test_never_self(self):
        for k in (2, 3, 5, 8):
            for r in range(2 * k):
                for i in range(k):
                    assert select_in_order(i, r, k) != i

    def test_permutation_every_round(self):
        """Every model is chosen as a collaborator exactly once."""
        for k in (2, 3, 6):
            for r in range(k + 2):
                chosen = [select_in_order(i, r, k) for i in range(k)]
                assert sorted(chosen) == list(range(k))

    def test_covers_all_partners_in_k_minus_1_rounds(self):
        k = 5
        for i in range(k):
            partners = {select_in_order(i, r, k) for r in range(k - 1)}
            assert partners == set(range(k)) - {i}

    def test_k_equals_one_self(self):
        assert select_in_order(0, 3, 1) == 0


class TestSimilaritySelection:
    def test_highest_picks_most_aligned(self):
        states = states_from_vectors([[1, 0], [0.9, 0.1], [-1, 0]])
        assert select_highest_similarity(0, states) == 1

    def test_lowest_picks_least_aligned(self):
        states = states_from_vectors([[1, 0], [0.9, 0.1], [-1, 0]])
        assert select_lowest_similarity(0, states) == 2

    def test_never_selects_self(self):
        states = states_from_vectors([[1, 0], [1, 0], [1, 0]])
        for i in range(3):
            assert select_highest_similarity(i, states) != i
            assert select_lowest_similarity(i, states) != i

    def test_euclidean_measure_differs_from_cosine(self):
        # b is aligned with a but far; c is less aligned but close.
        states = states_from_vectors([[1.0, 0.0], [10.0, 0.0], [0.8, 0.6]])
        assert select_highest_similarity(0, states, measure="cosine") == 1
        assert select_highest_similarity(0, states, measure="euclidean") == 2

    def test_param_keys_filtering(self):
        states = [
            {"w": np.array([1.0, 0.0]), "buf": np.array([0.0])},
            {"w": np.array([1.0, 0.0]), "buf": np.array([100.0])},
            {"w": np.array([-1.0, 0.0]), "buf": np.array([0.0])},
        ]
        # restricted to "w", model 1 is identical to 0
        assert select_highest_similarity(0, states, param_keys={"w"}) == 1

    def test_single_model_returns_self(self):
        states = states_from_vectors([[1, 2]])
        assert select_lowest_similarity(0, states) == 0


class TestSimilarityMatrix:
    def test_symmetric_with_unit_diagonal(self, rng):
        states = states_from_vectors(rng.standard_normal((4, 6)))
        sim = similarity_matrix(states)
        np.testing.assert_allclose(sim, sim.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(sim), np.ones(4), rtol=1e-9)

    def test_values_in_range(self, rng):
        states = states_from_vectors(rng.standard_normal((5, 8)))
        sim = similarity_matrix(states)
        assert (sim <= 1.0 + 1e-9).all() and (sim >= -1.0 - 1e-9).all()

    @pytest.mark.parametrize("measure", ["cosine", "euclidean"])
    @pytest.mark.parametrize("param_keys", [None, {"w"}])
    def test_matches_per_pair_oracle(self, rng, measure, param_keys):
        states = [
            {"w": rng.standard_normal(6), "buf": rng.standard_normal(2) * 100}
            for _ in range(5)
        ]
        np.testing.assert_allclose(
            similarity_matrix(states, measure, param_keys),
            reference_similarity_matrix(states, measure, param_keys),
            rtol=1e-10,
            atol=1e-10,
        )


class TestUnknownMeasure:
    """Only the built-in measures exist; every entry point says so."""

    @pytest.mark.parametrize(
        "select",
        [
            lambda states: similarity_matrix(states, "manhattan"),
            lambda states: select_highest_similarity(0, states, "manhattan"),
            lambda states: select_lowest_similarity(0, states, "manhattan"),
        ],
        ids=["similarity_matrix", "highest", "lowest"],
    )
    def test_rejected_by_name(self, select):
        states = states_from_vectors([[1, 0], [0, 1]])
        with pytest.raises(KeyError, match="manhattan"):
            select(states)


class TestSelectAll:
    """The whole-pool engine call agrees with one query per model."""

    @pytest.mark.parametrize("measure", ["cosine", "euclidean"])
    @pytest.mark.parametrize("strategy", CoModelSel.STRATEGIES)
    def test_matches_per_index_selection(self, rng, strategy, measure):
        states = states_from_vectors(rng.standard_normal((6, 5)))
        sel = CoModelSel(strategy, measure=measure)
        pool = PoolBuffer.from_states(states, dtype=np.float64)
        for round_idx in (0, 3):
            expected = [sel(i, states, round_idx) for i in range(len(states))]
            assert sel.select_all(pool, round_idx).tolist() == expected
        if strategy != "in_order":
            want_highest = strategy == "highest"
            assert expected == [
                reference_select_by_similarity(i, states, measure, None, want_highest)
                for i in range(len(states))
            ]


class TestCoModelSelWrapper:
    def test_strategy_dispatch(self):
        states = states_from_vectors([[1, 0], [0.9, 0.1], [-1, 0]])
        assert CoModelSel("lowest")(0, states, 0) == 2
        assert CoModelSel("highest")(0, states, 0) == 1
        assert CoModelSel("in_order")(0, states, 0) == 1

    def test_invalid_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            CoModelSel("random")

    def test_invalid_measure(self):
        with pytest.raises(ValueError, match="unknown measure"):
            CoModelSel("lowest", measure="manhattan")

    def test_invalid_measure_names_the_built_in_ones(self):
        with pytest.raises(ValueError, match=r"expected one of \['cosine', 'euclidean'\]"):
            CoModelSel("highest", measure="manhattan")
    def test_case_insensitive_strategy(self):
        assert CoModelSel("LOWEST").strategy == "lowest"
