"""Gram-based anomaly screening: scores, thresholds, records."""

import numpy as np
import pytest

from repro.robust.screen import SuspectRecord, screen_scores


def cluster_with_outlier(rng, k=8, p=12, magnitude=40.0):
    rows = 0.1 * rng.standard_normal((k, p))
    rows[2] += magnitude
    return rows


class TestScreenScores:
    def test_scores_are_distances_from_the_mean(self, rng):
        rows = cluster_with_outlier(rng)
        scores, _, _ = screen_scores(rows @ rows.T)
        expected = np.linalg.norm(rows - rows.mean(axis=0), axis=1)
        np.testing.assert_allclose(scores, expected, rtol=1e-8)

    def test_outlier_row_flagged_alone(self, rng):
        rows = cluster_with_outlier(rng)
        scores, threshold, flagged = screen_scores(rows @ rows.T)
        np.testing.assert_array_equal(flagged, [2])
        assert scores[2] > threshold

    def test_tight_cluster_flags_nothing(self, rng):
        rows = 0.1 * rng.standard_normal((6, 10))
        _, _, flagged = screen_scores(rows @ rows.T)
        assert flagged.size == 0

    def test_threshold_is_two_part(self, rng):
        rows = cluster_with_outlier(rng)
        scores, threshold, _ = screen_scores(
            rows @ rows.T, sigma=3.0, boost=2.0
        )
        med = np.median(scores)
        mad = np.median(np.abs(scores - med))
        assert threshold == pytest.approx(max(med + 3.0 * mad, 2.0 * med))

    def test_small_or_malformed_gram_rejected(self):
        with pytest.raises(ValueError, match="K >= 3"):
            screen_scores(np.eye(2))
        with pytest.raises(ValueError, match="K >= 3"):
            screen_scores(np.ones((3, 4)))

    def test_negative_cancellation_clamped_to_zero(self):
        # A rank-deficient Gram can push d² epsilon-negative; scores
        # must clamp instead of going NaN under the square root.
        gram = np.zeros((3, 3))
        scores, _, flagged = screen_scores(gram)
        np.testing.assert_array_equal(scores, np.zeros(3))
        assert flagged.size == 0


    def test_diverged_gram_flags_nothing(self, rng):
        rows = cluster_with_outlier(rng)
        gram = rows @ rows.T
        gram[4, 4] = np.nan
        scores, threshold, flagged = screen_scores(gram)
        assert np.isnan(threshold) and np.isnan(scores).all()
        assert flagged.size == 0


class TestSuspectRecord:
    def test_summary_is_json_friendly(self):
        record = SuspectRecord(
            row=np.int64(3), client_id=np.int64(9),
            score=np.float64(5.5), threshold=np.float64(2.0), action="flag",
        )
        summary = record.summary()
        assert summary == {
            "row": 3, "client": 9, "score": 5.5, "threshold": 2.0,
            "action": "flag",
        }
        assert type(summary["row"]) is int and type(summary["score"]) is float
