"""Silverman bandwidth and ambient Gaussian KDE."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import spearmanr

from manifold_rbf.density import kde_density, silverman_bandwidth
from manifold_rbf.rbf import ROW_BLOCK_BYTES
from manifold_rbf.zoo import PointCloud, Torus, sample_manifold, sampling_density


def cloud_from(points):
    return PointCloud(points=np.asarray(points, dtype=float), intrinsic=None,
                      spec=None)


def test_silverman_closed_form():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1000, 2))
    cloud = cloud_from(x)
    sigma = float(np.mean(np.std(x, axis=0, ddof=1)))
    want = sigma * (4.0 / (4 * 1000)) ** (1.0 / 6.0)
    assert silverman_bandwidth(cloud) == pytest.approx(want, rel=1e-14)


def test_silverman_scales_with_cloud():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 3))
    h = silverman_bandwidth(cloud_from(x))
    assert silverman_bandwidth(cloud_from(2.5 * x)) == pytest.approx(
        2.5 * h, rel=1e-12)


def test_silverman_decreases_with_N():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((300, 2))
    h1 = silverman_bandwidth(cloud_from(x))
    h2 = silverman_bandwidth(cloud_from(np.repeat(x, 2, axis=0)))
    assert h2 < h1


def test_silverman_rejects_degenerate():
    with pytest.raises(ValueError):
        silverman_bandwidth(cloud_from([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        silverman_bandwidth(cloud_from(np.ones((50, 2))))


def test_kde_identical_points_uniform():
    pts = np.tile([0.3, -1.2, 0.5], (40, 1))
    q = kde_density(cloud_from(pts), h=0.7)
    norm = 1.0 / ((0.7 * math.sqrt(2 * math.pi)) ** 3)
    assert np.allclose(q, norm, rtol=1e-14)


def test_kde_two_separated_clusters_balanced():
    rng = np.random.default_rng(3)
    a = 0.1 * rng.standard_normal((120, 2))
    b = 0.1 * rng.standard_normal((120, 2)) + np.array([50.0, 0.0])
    q = kde_density(cloud_from(np.vstack([a, b])))
    qa, qb = q[:120].mean(), q[120:].mean()
    assert abs(qa - qb) / qa <= 0.05


def test_kde_positive():
    rng = np.random.default_rng(4)
    q = kde_density(cloud_from(rng.uniform(-3, 3, size=(200, 3))))
    assert q.min() > 0


def test_kde_permutation_equivariant():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((150, 3))
    q = kde_density(cloud_from(x), h=0.4)
    perm = rng.permutation(150)
    q_perm = kde_density(cloud_from(x[perm]), h=0.4)
    assert np.allclose(q_perm, q[perm], rtol=1e-10)


def test_kde_rigid_motion_invariant():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((150, 3))
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = x @ Q.T + np.array([5.0, -2.0, 0.5])
    q0 = kde_density(cloud_from(x), h=0.5)
    q1 = kde_density(cloud_from(moved), h=0.5)
    assert np.allclose(q1, q0, rtol=1e-9)


def test_kde_rejects_bad_bandwidth():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        kde_density(cloud_from(rng.standard_normal((30, 2))), h=0.0)


def test_kde_default_bandwidth_is_silverman():
    rng = np.random.default_rng(8)
    cloud = cloud_from(rng.standard_normal((80, 2)))
    explicit = kde_density(cloud, h=silverman_bandwidth(cloud))
    assert np.array_equal(kde_density(cloud), explicit)


def test_kde_tracks_torus_density():
    # ambient KDE ranks points like the intrinsic-uniform sampling density
    spec = Torus(2.0)
    cloud = sample_manifold(spec, 2500, seed=0)
    q = kde_density(cloud)
    rho = spearmanr(q, sampling_density(cloud)).statistic
    assert rho >= 0.8


def dense_kde(x, h):
    """kde_density with the N x N squared distances formed whole, in the
    Gram form on coordinates centred at the mean of the cloud."""
    N, n = x.shape
    x = x - x.mean(axis=0)
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] - 2.0 * x @ x.T + sq[None, :], 0.0)
    return np.sum(np.exp(-d2 / (2.0 * h * h)), axis=1) / (
        N * (h * math.sqrt(2.0 * math.pi)) ** n)


def test_kde_matches_the_dense_formula():
    cloud = sample_manifold(Torus(2.0), 1500, seed=2)
    h = silverman_bandwidth(cloud)
    want = dense_kde(cloud.points, h)
    got = kde_density(cloud, h)
    assert np.max(np.abs(got - want) / want) <= 1e-14


def test_kde_allocates_no_n_by_n_matrix():
    N = 3000
    cloud = sample_manifold(Torus(2.0), N, seed=3)
    tracemalloc.start()
    try:
        kde_density(cloud)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * N * N


def test_kde_holds_one_row_block():
    # each block's kernel values are formed in place and freed before the
    # next block's product: measured 1.02 ROW_BLOCK_BYTES at N = 3000 (2.0
    # with the last block still alive, 3.0 with out-of-place arithmetic)
    cloud = sample_manifold(Torus(2.0), 3000, seed=3)
    tracemalloc.start()
    try:
        kde_density(cloud)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * ROW_BLOCK_BYTES
