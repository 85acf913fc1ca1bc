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
FCM_TOL = 1e-6  # a fit stops once no membership moves by this much in a round


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
    y = sims / sims.sum(axis=-1, keepdims=True)
    # the second pass moves about a third of the entries by an ulp; fits depend on those bits
    return y / y.sum(axis=-1, keepdims=True)


def fcm_fit(h, k, iters: int = 30, seed: int = 0, restarts: int = 1) -> ClusterAssignment:
    """Alternate membership and center updates from seeded-random row centers.

    Centers start as ``k`` distinct rows of ``h`` drawn with the seeded rng;
    each round updates memberships from clamped inner products and recenters
    each cluster at the membership-weighted average of the rows. A fit stops
    after ``iters`` rounds or when memberships move less than ``FCM_TOL``.

    ``restarts`` > 1 fits from that many seeded center draws and keeps the
    first fit with the highest fuzzy cohesion sum(Y * D); row-sampled center
    init can drop a cluster, and restarts make that event rare while staying
    deterministic per seed. The restarts run as one batched fit: every
    restart's centers are drawn first, the restarts still moving share each
    round's stacked products, and each restart freezes at the round where it
    converges, so each result equals that of fitting the restarts one by one.
    Raises ValueError on a non-finite representation.
    """
    h = np.ascontiguousarray(h, dtype=np.float64)
    n = h.shape[0]
    if k < 1:
        raise ValueError("cluster count must be >= 1")
    if k > n:
        raise ValueError(f"cluster count {k} exceeds row count {n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    bad = ~np.isfinite(h).all(axis=1)
    if bad.any():
        raise ValueError(f"representation row {int(np.argmax(bad))} is not finite")
    if not np.any(h):
        raise ValueError("representation matrix is all zeros")
    rng = np.random.default_rng(seed)
    starts = np.stack([rng.choice(n, size=k, replace=False) for _ in range(restarts)])
    # the fits still moving, stacked; each slice's products are its own h @ c.T and y.T @ h
    ids, centers, y = np.arange(restarts), h[starts], np.full((restarts, n, k), 1.0 / k)
    final_y, final_centers = np.empty_like(y), np.empty_like(centers)
    for _ in range(iters):
        sims = np.maximum(np.matmul(h, centers.transpose(0, 2, 1)), SIM_CLAMP)
        y_new = _memberships(sims)
        centers = np.matmul(y_new.transpose(0, 2, 1), h) / y_new.sum(axis=1)[:, :, None]
        stop = np.abs(y_new - y).max(axis=(1, 2)) < FCM_TOL
        y = y_new
        if stop.any():
            final_y[ids[stop]], final_centers[ids[stop]] = y[stop], centers[stop]
            ids, centers, y = ids[~stop], centers[~stop], y[~stop]
            if ids.size == 0:
                break
    final_y[ids], final_centers[ids] = y, centers
    sims = np.maximum(np.matmul(h, final_centers.transpose(0, 2, 1)), SIM_CLAMP)
    cohesion = (final_y * sims).sum(axis=(1, 2))
    best = 0
    for r in range(1, restarts):
        if cohesion[r] > cohesion[best]:
            best = r
    y = final_y[best]
    return ClusterAssignment(memberships=y, centers=final_centers[best], labels=hard_labels(y))
