"""Diffusion-maps graph Laplacian baseline: bandwidth tuning and spectrum."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from manifold_rbf import dm
from manifold_rbf.dm import (autotune_epsilon, dm_laplacian, dm_spectrum,
                             graph_neighbors, validate_graph)
from manifold_rbf.spectral import symmetric_result
from manifold_rbf.tangent import knn_indices
from manifold_rbf.zoo import (Sphere, Torus, sample_manifold,
                              scalar_eigen_truth)

# regular tetrahedron: all pairwise distances 2*sqrt(2), so delta^2/4 = 2
TETRA = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)


def knn_sq_distances(points, K):
    """(N, K) squared distances of every point to its K nearest neighbours."""
    diff = points[:, None, :] - points[knn_indices(points, K)]
    return np.einsum("ikm,ikm->ik", diff, diff)


def test_config_validation():
    validate_graph(10, K=10)
    validate_graph(10, K=10, epsilon=0.5)
    with pytest.raises(ValueError):
        validate_graph(10, K=1)
    with pytest.raises(ValueError):
        validate_graph(10, K=11)
    for eps in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            validate_graph(10, K=10, epsilon=eps)


def test_one_knn_query_serves_bandwidth_and_graph(monkeypatch):
    calls = []

    def counting(points, K, **kwargs):
        calls.append(K)
        return knn_indices(points, K, **kwargs)

    monkeypatch.setattr(dm, "knn_indices", counting)
    cloud = sample_manifold(Torus(2.0), 300, seed=0, mode="random_area")
    dm_laplacian(cloud, K=18)
    assert calls == [18]


def test_neighbor_count_defaults():
    assert graph_neighbors(1024) == 32
    assert graph_neighbors(1000) == 32
    assert graph_neighbors(4) == 2
    assert graph_neighbors(1024, K=7) == 7


def test_autotune_equal_distances():
    # single exponential in T(eps): log-derivative peak lands at delta^2/4
    eps = autotune_epsilon(knn_sq_distances(TETRA, 3))
    assert eps == pytest.approx(2.0)


def test_autotune_scaling_homogeneity():
    base = autotune_epsilon(knn_sq_distances(TETRA, 3))
    doubled = autotune_epsilon(knn_sq_distances(2.0 * TETRA, 3))
    assert doubled == pytest.approx(4.0 * base)       # dyadic factor: exact
    tripled = autotune_epsilon(knn_sq_distances(3.0 * TETRA, 3))
    ratio = tripled / (9.0 * base)                    # off-grid: one octave
    assert 0.5 <= ratio <= 2.0


def test_disconnected_clusters_zero_multiplicity(K=5):
    rng = np.random.default_rng(0)
    blob = rng.standard_normal((20, 3))
    pts = np.vstack([blob, blob + np.array([100.0, 0.0, 0.0])])
    cloud = SimpleNamespace(points=pts)
    with pytest.warns(RuntimeWarning, match="connected components"):
        vals, _, lam_max = dm_spectrum(cloud, k=3, K=K)
    tiny = 1e-8 * lam_max
    assert np.abs(vals[0]) <= tiny
    assert np.abs(vals[1]) <= tiny
    assert vals[2] > tiny


def test_underflowed_weights_are_no_edges():
    # with K = 25 the lists cross to the far blob, but those weights
    # underflow to zero and must not join the components
    test_disconnected_clusters_zero_multiplicity(K=25)


def test_sphere_leading_eigenvalue():
    cloud = sample_manifold(Sphere(), 1024, seed=0, mode="random_area")
    vals, vecs, lam_max = dm_spectrum(cloud, k=2, K=60)
    assert abs(vals[1] - 2.0) / 2.0 <= 0.10
    assert vals[1] == pytest.approx(1.9696656, abs=1e-4)
    # real symmetric solve path: no negative modes beyond roundoff; the
    # smallest algebraic modes hold the global minimum
    assert vals.min() >= -1e-8 * lam_max
    # constant back-transformed zero mode
    assert np.abs(vals[0]) <= 1e-8 * lam_max
    v0 = vecs[:, 0]
    assert np.std(v0) / np.abs(np.mean(v0)) <= 1e-8


def test_constant_image_and_sparsity():
    rel = []
    for N in (256, 1024):
        cloud = sample_manifold(Sphere(), N, seed=0, mode="random_area")
        K = graph_neighbors(N)
        L, _scale = dm_laplacian(cloud, K=K)
        one = np.ones(N)
        rel.append(np.linalg.norm(L @ one)
                   / (scipy.sparse.linalg.norm(L) * np.linalg.norm(one)))
        A = L.tocoo()
        assert np.count_nonzero(A.data[A.row != A.col]) <= 2 * N * K
    assert rel[0] <= 5e-3
    assert rel[1] < rel[0]


def test_bandwidth_plateau_torus():
    # tuned bandwidth sits inside the flat region of the error curve
    truth = scalar_eigen_truth(Torus(2.0), 4).values[1][0]
    cloud = sample_manifold(Torus(2.0), 2500, seed=0, mode="random_area")
    eps = autotune_epsilon(knn_sq_distances(cloud.points, 100))
    assert 0.015 <= eps <= 0.07
    errs = []
    for f in (0.25, 0.5, 1.0, 2.0):
        vals, _, _ = dm_spectrum(cloud, k=2, K=100, epsilon=eps * f)
        errs.append(abs(vals[1] - truth) / truth)
    assert errs[2] <= 0.05                 # tuned point itself
    assert max(errs) <= 0.15               # flat across the decade


def _clusters(values, gap):
    # index ranges of eigenvalue clusters separated by more than gap
    cuts = np.flatnonzero(np.diff(values) > gap) + 1
    return np.split(np.arange(len(values)), cuts)


@pytest.mark.parametrize("N,k", [(400, 24), (20, 20)])
def test_sparse_spectrum_matches_dense_reference(N, k):
    # k = N is past what ARPACK solves and takes the dense branch
    cloud = sample_manifold(Torus(2.0), N, seed=1, mode="random_area")
    # ceil(sqrt(N)) neighbours
    vals, vecs, lam_max = dm_spectrum(cloud, k)
    L, scale = dm_laplacian(cloud)
    ref, Z = scipy.linalg.eigh(L.toarray())
    assert np.max(np.abs(vals - ref[:k])) <= 1e-10 * ref[-1]
    assert abs(lam_max - ref[-1]) <= 1e-10 * ref[-1]
    # same trivial cutoff as the dense full spectrum gives
    tol = 1e-8
    sparse = symmetric_result(vals, vecs, tol, radius=lam_max)
    dense = symmetric_result(ref, scale[:, None] * Z[:, :k], tol)
    assert sparse.trivial_cutoff == pytest.approx(dense.trivial_cutoff,
                                                  rel=1e-12)
    assert np.array_equal(sparse.trivial, dense.trivial)
    # eigenvector subspaces of every cluster the k modes hold in full
    checked = 0
    for block in _clusters(ref[:k + 1], 1e-6 * ref[-1]):
        if block[-1] >= k:
            break
        angles = scipy.linalg.subspace_angles(vecs[:, block],
                                              scale[:, None] * Z[:, block])
        assert np.max(np.sin(angles)) <= 1e-8
        checked += len(block)
    assert checked >= k - 4


def test_sparse_spectrum_is_bit_repeatable():
    cloud = sample_manifold(Sphere(), 400, seed=2, mode="random_area")
    first = dm_spectrum(cloud, 24, K=20)
    second = dm_spectrum(cloud, 24, K=20)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
