"""Fuzzy c-means over inner products: the membership update, labels, determinism."""

import numpy as np
import pytest

from wgclust.fcm import _memberships, fcm_fit, hard_labels


class TestMembershipModes:
    def test_mode_formulas_on_fixed_similarities(self):
        # d = [3, 1] -> memberships proportional to the similarities
        np.testing.assert_allclose(_memberships(np.array([[3.0, 1.0]])), [[0.75, 0.25]])

    def test_equidistant_point_splits_both_modes(self):
        h = np.vstack([np.eye(2), [[1.0, 1.0]]])
        y = _memberships(h @ np.eye(2).T)
        np.testing.assert_allclose(y[2], [0.5, 0.5])

    def test_rows_sum_to_one_both_modes(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(40, 6))
        a = fcm_fit(h, 3, seed=1)
        np.testing.assert_allclose(a.memberships.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(a.memberships >= 0)


class TestFcmFit:
    def test_single_cluster(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(10, 4))
        a = fcm_fit(h, 1, seed=0)
        np.testing.assert_array_equal(a.memberships, np.ones((10, 1)))
        np.testing.assert_array_equal(a.labels, np.zeros(10, dtype=int))

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            fcm_fit(np.ones((3, 2)), 4, seed=0)

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            fcm_fit(np.zeros((5, 3)), 2, seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(30, 5))
        a = fcm_fit(h, 3, seed=7, restarts=4)
        b = fcm_fit(h, 3, seed=7, restarts=4)
        np.testing.assert_array_equal(a.memberships, b.memberships)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_centers_stay_in_convex_hull(self):
        rng = np.random.default_rng(3)
        h = rng.random(size=(25, 3)) + 0.5  # positive orthant
        a = fcm_fit(h, 3, seed=4)
        # every center is a convex combination of rows, so componentwise bounds hold
        assert np.all(a.centers >= h.min(axis=0) - 1e-12)
        assert np.all(a.centers <= h.max(axis=0) + 1e-12)

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(5)
        blobs = []
        for center in (np.array([8.0, 0, 0]), np.array([0, 8.0, 0]), np.array([0, 0, 8.0])):
            blobs.append(center + rng.normal(scale=0.3, size=(20, 3)))
        h = np.vstack(blobs)
        a = fcm_fit(h, 3, seed=0, restarts=8)
        truth = np.repeat([0, 1, 2], 20)
        # same partition up to relabeling
        for k in range(3):
            assert len(set(a.labels[truth == k])) == 1
        assert len(set(a.labels[::20])) == 3


class TestHardLabels:
    def test_argmax(self):
        assert hard_labels(np.array([[0.2, 0.8]]))[0] == 1

    def test_tie_takes_lowest(self):
        assert hard_labels(np.array([[0.5, 0.5]]))[0] == 0

    def test_identity_pattern(self):
        y = np.eye(4)
        np.testing.assert_array_equal(hard_labels(y), [0, 1, 2, 3])
