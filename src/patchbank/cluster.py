"""Lloyd's k-means with k-means++ seeding, deterministic given a seed."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import check_int

# Lloyd iterations before giving up on convergence.
MAX_ITER = 100


@dataclass
class KMeansResult:
    centers: np.ndarray            # (k, C)
    objective: float               # sum of squared distances to assigned centers
    n_iter: int
    objective_history: list[float] = field(default_factory=list)


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # (n, k) squared euclidean distances.
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkc,nkc->nk", diff, diff)


def _seed_plusplus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]), dtype=points.dtype)
    centers[0] = points[rng.integers(n)]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            r = rng.random() * total
            pick = int(np.searchsorted(np.cumsum(closest), r, side="right"))
            pick = min(pick, n - 1)
        centers[j] = points[pick]
        closest = np.minimum(closest, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans(vectors, k: int, seed) -> KMeansResult:
    """Cluster the rows of an (n, C) array into k groups with Lloyd's algorithm.

    Seeding is k-means++ from the given seed (an int, SeedSequence, or
    Generator), and at most ``MAX_ITER`` iterations run.  Assignment ties
    go to the smallest center index; a cluster that empties is re-seeded
    at the point farthest from its assigned center, so where k exceeds the
    number of distinct rows, or of rows, some centers repeat a row.  Non-finite
    vectors, and vectors whose dtype is not bool, int or float, are rejected.
    """
    points = np.asarray(vectors)
    # The float64 cast would drop a complex vector's imaginary part with only a warning.
    if points.dtype.kind not in "biuf":
        raise ValueError(f"kmeans vectors must be bool, int or float, got dtype {points.dtype}")
    points = points.astype(np.float64, copy=False)
    if points.size == 0:
        raise ValueError("kmeans requires at least one vector")
    if points.ndim != 2:
        raise ValueError(f"kmeans vectors must be an (n, C) array, got shape {points.shape}")
    check_int("k", k, 1)
    if not np.isfinite(points).all():
        raise ValueError("kmeans vectors must be finite, got NaN or inf")
    n = len(points)

    rng = np.random.default_rng(seed)
    centers = _seed_plusplus(points, k, rng)
    history: list[float] = []
    assign = None
    it = 0
    for it in range(1, MAX_ITER + 1):
        d2 = _sq_dists(points, centers)
        new_assign = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), new_assign].sum()))
        new_centers = centers.copy()
        for j in range(k):
            members = points[new_assign == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
            else:
                far = int(d2[np.arange(n), new_assign].argmax())
                new_centers[j] = points[far]
        if assign is not None and np.array_equal(new_assign, assign) and np.array_equal(
            new_centers, centers
        ):
            break
        assign, centers = new_assign, new_centers

    d2 = _sq_dists(points, centers)
    objective = float(d2.min(axis=1).sum())
    return KMeansResult(centers=centers, objective=objective, n_iter=it,
                        objective_history=history)
