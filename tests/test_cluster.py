"""Lloyd's k-means with k-means++ seeding."""

import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchbank.cluster import kmeans


@given(st.integers(1, 30), st.integers(1, 4), st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_deterministic_per_seed_and_objective_never_rises(n, c, k, pyrng):
    rng = np.random.default_rng(pyrng.randrange(2**32))
    points = rng.standard_normal((n, c)) * rng.uniform(0.1, 10.0)
    seed = pyrng.randrange(2**32)
    a, b = kmeans(points, k, seed), kmeans(points, k, seed)
    assert a.centers.tobytes() == b.centers.tobytes()
    assert a.objective_history == b.objective_history
    assert a.centers.shape == (k, c)
    hist = a.objective_history
    assert all(later <= earlier for earlier, later in zip(hist, hist[1:]))
    assert a.objective <= hist[-1]


def test_separated_blobs_recovered():
    rng = np.random.default_rng(0)
    true = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.concatenate([t + 0.1 * rng.standard_normal((20, 2)) for t in true])
    res = kmeans(points, 3, seed=1)
    found = sorted(map(tuple, np.round(res.centers)))
    assert found == sorted(map(tuple, true))


def test_fewer_points_than_clusters():
    points = np.array([[1.0, 2.0], [3.0, -1.0]])
    res = kmeans(points, 5, seed=0)
    assert res.centers.shape == (5, 2)
    assert np.isfinite(res.centers).all()
    assert all(any(np.array_equal(ctr, p) for p in points) for ctr in res.centers)
    assert res.objective == 0.0


@given(st.integers(1, 4), st.integers(1, 3), st.integers(2, 5), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_emptied_cluster_is_reseeded(distinct, extra, copies, pyrng):
    # More clusters than distinct points: some center duplicates another,
    # loses every point to the lower index, and must be re-seeded at a data
    # point instead of becoming the mean of nothing.
    values = np.arange(distinct, dtype=np.float64)[:, None] * 3.0
    points = np.repeat(values, copies, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a mean of an empty slice warns
        res = kmeans(points, distinct + extra, seed=pyrng.randrange(2**32))
    assert np.isfinite(res.centers).all()
    assert set(res.centers[:, 0]) == set(values[:, 0])
    assert res.objective == 0.0


@pytest.mark.parametrize("vectors,k,message", [
    (np.zeros((0, 2)), 1, "kmeans requires at least one vector"),
    ([], 1, "kmeans requires at least one vector"),
    (np.zeros(3), 1, r"kmeans vectors must be an \(n, C\) array, got shape \(3,\)"),
    (np.zeros((2, 3, 4)), 1, r"kmeans vectors must be an \(n, C\) array, got shape \(2, 3, 4\)"),
    (np.zeros((3, 2)), 0, "k must be >= 1, got 0"),
    (np.zeros((3, 2)), 2.5, "k must be an integer, got 2.5"),
    (np.zeros((3, 2)), True, "k must be an integer, got True"),
    # The float64 cast dropped the imaginary part with only a ComplexWarning.
    (np.array([[1 + 2j, 0], [3, 4j]]), 1,
     "kmeans vectors must be bool, int or float, got dtype complex128"),
    ([["a", "b"]], 1, "kmeans vectors must be bool, int or float, got dtype <U1"),
], ids=["no-vectors", "empty-list", "rank-1", "rank-3", "k-zero", "k-float", "k-bool",
        "complex", "strings"])
def test_bad_arguments_rejected(vectors, k, message):
    with pytest.raises(ValueError, match=message):
        kmeans(vectors, k, seed=0)


def test_takes_vectors_k_and_seed_only():
    assert list(inspect.signature(kmeans).parameters) == ["vectors", "k", "seed"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vectors_rejected(bad):
    # A NaN point made every center NaN after 100 silent iterations.
    with pytest.raises(ValueError, match="kmeans vectors must be finite"):
        kmeans([[bad, 0.0], [1.0, 1.0], [2.0, 2.0]], 2, seed=0)
