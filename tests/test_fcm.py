"""Fuzzy c-means over inner products: the membership update, labels, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgclust.fcm import FCM_TOL, SIM_CLAMP, _memberships, fcm_fit, hard_labels


def reference_single_fit(h, k, iters, rng):
    """One restart as fcm_fit ran it before restarts were batched; also returns its round count."""
    n = h.shape[0]
    centers = h[rng.choice(n, size=k, replace=False)].copy()
    y = np.full((n, k), 1.0 / k)
    rounds = 0
    for _ in range(iters):
        rounds += 1
        sims = np.maximum(h @ centers.T, SIM_CLAMP)
        y_new = _memberships(sims)
        centers = (y_new.T @ h) / y_new.sum(axis=0)[:, None]
        delta = np.abs(y_new - y).max()
        y = y_new
        if delta < FCM_TOL:
            break
    sims = np.maximum(h @ centers.T, SIM_CLAMP)
    return y, centers, float((y * sims).sum()), rounds


def reference_fcm_fit(h, k, iters, seed, restarts):
    """Restarts fitted one by one, keeping the first with the highest cohesion; plus all round counts."""
    h = np.ascontiguousarray(h, dtype=np.float64)
    rng = np.random.default_rng(seed)
    best, rounds = None, []
    for _ in range(restarts):
        y, centers, cohesion, r = reference_single_fit(h, k, iters, rng)
        rounds.append(r)
        if best is None or cohesion > best[2]:
            best = (y, centers, cohesion)
    return best[0], best[1], rounds


def assert_matches_reference(h, k, iters, seed, restarts):
    y, centers, rounds = reference_fcm_fit(h, k, iters, seed, restarts)
    a = fcm_fit(h, k, iters=iters, seed=seed, restarts=restarts)
    np.testing.assert_array_equal(a.memberships, y)
    np.testing.assert_array_equal(a.centers, centers)
    np.testing.assert_array_equal(a.labels, hard_labels(y))
    return rounds


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


class TestBatchedRestarts:
    """The restarts run as one batched fit whose every output equals fitting them one by one."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 300),
        d=st.integers(1, 40),
        k_pick=st.integers(1, 8),
        restarts=st.sampled_from([1, 2, 8]),
        iters=st.sampled_from([1, 30]),
        kind=st.sampled_from(["normal", "positive", "blobs"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_equals_restarts_fitted_one_by_one(self, n, d, k_pick, restarts, iters, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            h = rng.normal(size=(n, d))
        elif kind == "positive":
            h = rng.random((n, d)) * 10.0
        else:
            h = np.abs(rng.normal(size=(n, d))) + 3.0 * rng.integers(0, 3, size=(n, 1))
        assert_matches_reference(h, min(k_pick, n), iters, seed % 1000, restarts)

    def test_restarts_that_stop_in_different_rounds(self):
        h = np.random.default_rng(3).normal(size=(40, 3))
        rounds = assert_matches_reference(h, 2, 30, 0, 8)
        assert min(rounds) < 30 and max(rounds) == 30 and len(set(rounds)) > 3

    def test_single_row_and_single_restart(self):
        assert_matches_reference(np.array([[1.0, -2.0, 0.5]]), 1, 30, 0, 1)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_row_is_named(self, bad):
        h = np.random.default_rng(0).normal(size=(6, 3))
        h[4, 1] = bad
        h[5, 0] = bad
        with pytest.raises(ValueError, match="row 4 is not finite"):
            fcm_fit(h, 2, seed=0)


class TestHardLabels:
    def test_argmax(self):
        assert hard_labels(np.array([[0.2, 0.8]]))[0] == 1

    def test_tie_takes_lowest(self):
        assert hard_labels(np.array([[0.5, 0.5]]))[0] == 0

    def test_identity_pattern(self):
        y = np.eye(4)
        np.testing.assert_array_equal(hard_labels(y), [0, 1, 2, 3])
