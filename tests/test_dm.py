"""Diffusion-maps graph Laplacian baseline: bandwidth tuning and spectrum."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from manifold_rbf.dm import (DmConfig, autotune_epsilon,
                             default_neighbor_count, dm_laplacian,
                             dm_spectrum)
from manifold_rbf.zoo import (Sphere, Torus, sample_manifold,
                              scalar_eigen_truth)

# regular tetrahedron: all pairwise distances 2*sqrt(2), so delta^2/4 = 2
TETRA = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)


def test_config_validation():
    DmConfig(K_neighbors=10).validate(10)
    with pytest.raises(ValueError):
        DmConfig(K_neighbors=1).validate(10)
    with pytest.raises(ValueError):
        DmConfig(K_neighbors=11).validate(10)


def test_neighbor_count_defaults():
    assert default_neighbor_count(1024) == 32
    assert default_neighbor_count(1000) == 32
    assert default_neighbor_count(4) == 2


def test_autotune_equal_distances():
    # single exponential in T(eps): log-derivative peak lands at delta^2/4
    eps = autotune_epsilon(SimpleNamespace(points=TETRA), 3)
    assert eps == pytest.approx(2.0)


def test_autotune_scaling_homogeneity():
    base = autotune_epsilon(SimpleNamespace(points=TETRA), 3)
    doubled = autotune_epsilon(SimpleNamespace(points=2.0 * TETRA), 3)
    assert doubled == pytest.approx(4.0 * base)       # dyadic factor: exact
    tripled = autotune_epsilon(SimpleNamespace(points=3.0 * TETRA), 3)
    ratio = tripled / (9.0 * base)                    # off-grid: one octave
    assert 0.5 <= ratio <= 2.0


def test_disconnected_clusters_zero_multiplicity():
    rng = np.random.default_rng(0)
    blob = rng.standard_normal((20, 3))
    pts = np.vstack([blob, blob + np.array([100.0, 0.0, 0.0])])
    cloud = SimpleNamespace(points=pts)
    with pytest.warns(RuntimeWarning, match="connected components"):
        vals, _, full = dm_spectrum(cloud, DmConfig(K_neighbors=5), k=3)
    tiny = 1e-8 * np.abs(full).max()
    assert np.abs(vals[0]) <= tiny
    assert np.abs(vals[1]) <= tiny
    assert vals[2] > tiny


def test_sphere_leading_eigenvalue():
    cloud = sample_manifold(Sphere(), 1024, seed=0, mode="random_area")
    vals, vecs, full = dm_spectrum(cloud, DmConfig(K_neighbors=60), k=2)
    assert abs(vals[1] - 2.0) / 2.0 <= 0.10
    assert vals[1] == pytest.approx(1.9696656, abs=1e-4)
    # real symmetric solve path: no negative modes beyond roundoff
    assert full.min() >= -1e-8 * np.abs(full).max()
    # constant back-transformed zero mode
    assert np.abs(vals[0]) <= 1e-8 * np.abs(full).max()
    v0 = vecs[:, 0]
    assert np.std(v0) / np.abs(np.mean(v0)) <= 1e-8


def test_constant_image_and_sparsity():
    rel = []
    for N in (256, 1024):
        cloud = sample_manifold(Sphere(), N, seed=0, mode="random_area")
        K = default_neighbor_count(N)
        pair, _scale = dm_laplacian(cloud, DmConfig(K_neighbors=K))
        one = np.ones(N)
        rel.append(np.linalg.norm(pair.A @ one)
                   / (np.linalg.norm(pair.A) * np.linalg.norm(one)))
        off = pair.A - np.diag(np.diag(pair.A))
        assert np.count_nonzero(off) <= 2 * N * K
    assert rel[0] <= 5e-3
    assert rel[1] < rel[0]


def test_bandwidth_plateau_torus():
    # tuned bandwidth sits inside the flat region of the error curve
    truth = scalar_eigen_truth(Torus(2.0), 4).values[1][0]
    cloud = sample_manifold(Torus(2.0), 2500, seed=0, mode="random_area")
    eps = autotune_epsilon(cloud, 100)
    assert 0.015 <= eps <= 0.07
    errs = []
    for f in (0.25, 0.5, 1.0, 2.0):
        vals, _, _ = dm_spectrum(
            cloud, DmConfig(K_neighbors=100, epsilon=eps * f), k=2)
        errs.append(abs(vals[1] - truth) / truth)
    assert errs[2] <= 0.05                 # tuned point itself
    assert max(errs) <= 0.15               # flat across the decade
