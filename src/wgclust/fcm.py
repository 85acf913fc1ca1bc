"""Inner-product fuzzy c-means over node representations.

Memberships come from inner products with the cluster centers rather than
euclidean distances: each row's membership in a cluster is proportional to
its (clamped) inner product with that cluster's center, so the most similar
center gets the highest membership.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ClusterAssignment", "fcm_fit", "hard_labels"]

SIM_CLAMP = 1e-8


@dataclass(frozen=True)
class ClusterAssignment:
    """Soft memberships (rows sum to 1), centers, and argmax hard labels."""

    memberships: np.ndarray
    centers: np.ndarray
    labels: np.ndarray

    @property
    def cluster_count(self) -> int:
        return self.centers.shape[0]


def hard_labels(memberships: np.ndarray) -> np.ndarray:
    """Argmax label per row; ties go to the lowest cluster index."""
    return np.argmax(memberships, axis=1)


def _memberships(sims: np.ndarray) -> np.ndarray:
    y = sims / sims.sum(axis=1, keepdims=True)
    # the second pass moves about a third of the entries by an ulp; fits depend on those bits
    return y / y.sum(axis=1, keepdims=True)


def _single_fit(h, k, iters, rng, tol):
    n = h.shape[0]
    centers = h[rng.choice(n, size=k, replace=False)].copy()
    y = np.full((n, k), 1.0 / k)
    for _ in range(iters):
        sims = np.maximum(h @ centers.T, SIM_CLAMP)
        y_new = _memberships(sims)
        centers = (y_new.T @ h) / y_new.sum(axis=0)[:, None]
        delta = np.abs(y_new - y).max()
        y = y_new
        if delta < tol:
            break
    sims = np.maximum(h @ centers.T, SIM_CLAMP)
    cohesion = float((y * sims).sum())
    return y, centers, cohesion


def fcm_fit(h, k, iters: int = 30, seed: int = 0, tol: float = 1e-6,
            restarts: int = 1) -> ClusterAssignment:
    """Alternate membership and center updates from seeded-random row centers.

    Centers start as ``k`` distinct rows of ``h`` drawn with the seeded rng;
    each round updates memberships from clamped inner products and recenters
    each cluster at the membership-weighted average of the rows. Stops after
    ``iters`` rounds or when memberships move less than ``tol``.

    ``restarts`` > 1 repeats the fit with fresh seeded center draws and keeps
    the run with the highest fuzzy cohesion sum(Y * D); row-sampled center
    init can drop a cluster, and restarts make that event rare while staying
    deterministic per seed.
    """
    h = np.ascontiguousarray(h, dtype=np.float64)
    n = h.shape[0]
    if k < 1:
        raise ValueError("cluster count must be >= 1")
    if k > n:
        raise ValueError(f"cluster count {k} exceeds row count {n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not np.any(h):
        raise ValueError("representation matrix is all zeros")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        y, centers, cohesion = _single_fit(h, k, iters, rng, tol)
        if best is None or cohesion > best[2]:
            best = (y, centers, cohesion)
    y, centers, _ = best
    return ClusterAssignment(memberships=y, centers=centers, labels=hard_labels(y))
