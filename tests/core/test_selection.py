"""CoModelSel: the three strategies and similarity measures."""

import numpy as np
import pytest
from _selection_oracle import reference_select_by_similarity, reference_similarity_matrix

from repro.core.gram import GramTracker
from repro.core.pool import PoolBuffer
from repro.core.selection import CoModelSel, select_in_order


def states_from_vectors(vectors):
    return [{"w": np.asarray(v, dtype=np.float64)} for v in vectors]


def select(strategy, states, measure="cosine", param_keys=None, round_idx=0):
    """``select_all`` over a float64 pool of ``states``, as a list."""
    pool = PoolBuffer.from_states(states, dtype=np.float64)
    return CoModelSel(strategy, measure, param_keys).select_all(pool, round_idx).tolist()


def similarity(states, measure="cosine", param_keys=None):
    """The ``(K, K)`` matrix ``select_all`` ranks: a fresh tracker's
    cosine, or the blocked euclidean matrix."""
    pool = PoolBuffer.from_states(states, dtype=np.float64)
    if measure == "cosine":
        return GramTracker.from_pool(pool, param_keys).similarity()
    return pool.euclidean_matrix(param_keys)


class TestCosine:
    """The cosine ``select_all`` ranks: a fresh tracker's."""

    def test_identical_vectors(self):
        v = [1.0, 2.0, 3.0]
        assert similarity(states_from_vectors([v, v]))[0, 1] == pytest.approx(1.0)

    def test_opposite_vectors(self):
        sim = similarity(states_from_vectors([[1.0, 0.0], [-1.0, 0.0]]))
        assert sim[0, 1] == pytest.approx(-1.0)

    def test_orthogonal(self):
        sim = similarity(states_from_vectors([[1.0, 0.0], [0.0, 1.0]]))
        assert sim[0, 1] == pytest.approx(0.0)

    def test_zero_vector_safe(self):
        sim = similarity(states_from_vectors([np.zeros(3), np.ones(3)]))
        assert (sim[0] == 0.0).all() and (sim[:, 0] == 0.0).all()

    def test_scale_invariance(self, rng):
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        sim = similarity(states_from_vectors([a, b, 5 * a, 0.1 * b]))
        assert sim[0, 1] == pytest.approx(sim[2, 3])


class TestEuclidean:
    """The euclidean measure: negative distance, ``euclidean_matrix``."""

    def test_identical_is_max(self):
        v = np.ones(4)
        sim = similarity(states_from_vectors([v, v, v + 1]), "euclidean")
        assert sim[0, 1] == 0.0
        assert sim[0, 2] < 0.0

    def test_ordering(self):
        a = np.zeros(3)
        near, far = np.full(3, 0.1), np.full(3, 5.0)
        sim = similarity(states_from_vectors([a, near, far]), "euclidean")
        assert sim[0, 1] > sim[0, 2]


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
        assert select("highest", states)[0] == 1

    def test_lowest_picks_least_aligned(self):
        states = states_from_vectors([[1, 0], [0.9, 0.1], [-1, 0]])
        assert select("lowest", states)[0] == 2

    def test_never_selects_self(self):
        states = states_from_vectors([[1, 0], [1, 0], [1, 0]])
        for strategy in CoModelSel.STRATEGIES:
            assert all(co != i for i, co in enumerate(select(strategy, states)))

    def test_euclidean_measure_differs_from_cosine(self):
        # b is aligned with a but far; c is less aligned but close.
        states = states_from_vectors([[1.0, 0.0], [10.0, 0.0], [0.8, 0.6]])
        assert select("highest", states, measure="cosine")[0] == 1
        assert select("highest", states, measure="euclidean")[0] == 2

    def test_param_keys_filtering(self):
        states = [
            {"w": np.array([1.0, 0.0]), "buf": np.array([0.0])},
            {"w": np.array([1.0, 0.0]), "buf": np.array([100.0])},
            {"w": np.array([-1.0, 0.0]), "buf": np.array([0.0])},
        ]
        # restricted to "w", model 1 is identical to 0
        assert select("highest", states, param_keys={"w"})[0] == 1

    def test_single_model_returns_self(self):
        assert select("lowest", states_from_vectors([[1, 2]])) == [0]


class TestSimilarityMatrix:
    def test_symmetric_with_unit_diagonal(self, rng):
        sim = similarity(states_from_vectors(rng.standard_normal((4, 6))))
        np.testing.assert_allclose(sim, sim.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(sim), np.ones(4), rtol=1e-9)

    def test_values_in_range(self, rng):
        sim = similarity(states_from_vectors(rng.standard_normal((5, 8))))
        assert (sim <= 1.0 + 1e-9).all() and (sim >= -1.0 - 1e-9).all()

    @pytest.mark.parametrize("measure", ["cosine", "euclidean"])
    @pytest.mark.parametrize("param_keys", [None, {"w"}])
    def test_matches_per_pair_oracle(self, rng, measure, param_keys):
        states = [
            {"w": rng.standard_normal(6), "buf": rng.standard_normal(2) * 100}
            for _ in range(5)
        ]
        np.testing.assert_allclose(
            similarity(states, measure, param_keys),
            reference_similarity_matrix(states, measure, param_keys),
            rtol=1e-10,
            atol=1e-10,
        )


class TestUnknownMeasure:
    """Only the built-in measures exist; every strategy says so."""

    @pytest.mark.parametrize("strategy", CoModelSel.STRATEGIES)
    def test_rejected_by_name(self, strategy):
        with pytest.raises(ValueError, match="manhattan"):
            CoModelSel(strategy, measure="manhattan")


class TestSelectAll:
    """The whole-pool engine call agrees with the per-pair scan."""

    @pytest.mark.parametrize("measure", ["cosine", "euclidean"])
    @pytest.mark.parametrize("strategy", CoModelSel.STRATEGIES)
    def test_matches_per_index_selection(self, rng, strategy, measure):
        states = states_from_vectors(rng.standard_normal((6, 5)))
        for round_idx in (0, 3):
            if strategy == "in_order":
                expected = [select_in_order(i, round_idx, 6) for i in range(6)]
            else:
                expected = [
                    reference_select_by_similarity(
                        i, states, measure, None, strategy == "highest"
                    )
                    for i in range(6)
                ]
            assert select(strategy, states, measure, round_idx=round_idx) == expected

    def test_tracked_gram_selects_as_a_fresh_one(self, rng):
        """Without a ``gram``, cosine reads a fresh tracker: a Gram a
        tracker kept as rows landed gives the same bits, so the same pick."""
        pool = PoolBuffer.from_states(states_from_vectors(rng.standard_normal((6, 9))))
        tracker = GramTracker(pool)
        for i in rng.permutation(6):
            tracker.update_row(int(i))
        for strategy in ("highest", "lowest"):
            sel = CoModelSel(strategy)
            np.testing.assert_array_equal(
                sel.select_all(pool, 0, gram=tracker.gram), sel.select_all(pool, 0)
            )

    @pytest.mark.parametrize("strategy", ["highest", "lowest"])
    def test_ties_resolve_to_the_lowest_index(self, rng, strategy):
        v = rng.standard_normal(7)
        # Scaling by two is exact: rows 1, 3 tie for model 0's highest
        # cosine (+1) bit for bit, rows 2, 4 for its lowest (-1).
        rows = [v, 2 * v, -2 * v, 2 * v, -2 * v, rng.standard_normal(7)]
        sim = similarity(states_from_vectors(rows))
        assert sim[0, 1] == sim[0, 3] and sim[0, 2] == sim[0, 4]
        assert select(strategy, states_from_vectors(rows))[0] == (
            1 if strategy == "highest" else 2
        )

    def test_gram_rejected_for_euclidean(self, rng):
        pool = PoolBuffer.from_states(states_from_vectors(rng.standard_normal((4, 3))))
        with pytest.raises(ValueError, match="cosine"):
            CoModelSel("lowest", "euclidean").select_all(pool, 0, gram=np.eye(4))

    def test_gram_shape_validated(self, rng):
        pool = PoolBuffer.from_states(states_from_vectors(rng.standard_normal((4, 3))))
        with pytest.raises(ValueError, match="does not match pool size"):
            CoModelSel("lowest").select_all(pool, 0, gram=np.eye(3))

    def test_in_order_ignores_gram(self, rng):
        pool = PoolBuffer.from_states(states_from_vectors(rng.standard_normal((5, 3))))
        sel = CoModelSel("in_order")
        np.testing.assert_array_equal(
            sel.select_all(pool, 1, gram=np.eye(3)), sel.select_all(pool, 1)
        )


class TestCoModelSel:
    def test_strategy_dispatch(self):
        states = states_from_vectors([[1, 0], [0.9, 0.1], [-1, 0]])
        assert select("lowest", states)[0] == 2
        assert select("highest", states)[0] == 1
        assert select("in_order", states)[0] == 1

    def test_invalid_strategy_names_its_key(self):
        with pytest.raises(ValueError, match=r"method_params\['selection'\]: unknown strategy"):
            CoModelSel("random")

    def test_invalid_measure_names_its_key(self):
        with pytest.raises(ValueError, match=r"method_params\['measure'\]: unknown measure"):
            CoModelSel("lowest", measure="manhattan")

    def test_invalid_measure_names_the_built_in_ones(self):
        with pytest.raises(ValueError, match=r"expected one of \['cosine', 'euclidean'\]"):
            CoModelSel("highest", measure="manhattan")

    def test_case_insensitive_strategy(self):
        assert CoModelSel("LOWEST").strategy == "lowest"
