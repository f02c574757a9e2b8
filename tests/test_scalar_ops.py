"""Tangential derivative matrices and the two discrete Laplacians."""

import numpy as np
import pytest

from manifold_rbf.rbf import KernelModel, build_system
from manifold_rbf.scalar_ops import (ScalarOperatorSet, build_grad_matrices,
                                     laplace_beltrami_nonsymmetric,
                                     laplace_beltrami_symmetric,
                                     reliable_mode_budget)
from manifold_rbf.spectral import solve_nonsymmetric, solve_symmetric
from manifold_rbf.tangent import ProjectionField
from manifold_rbf.zoo import (Ellipse, PointCloud, Sphere,
                              analytic_projection, sample_manifold,
                              sampling_density)


@pytest.fixture(scope="module")
def circle_ops():
    circle = Ellipse(1.0)
    cloud = sample_manifold(circle, 400, seed=0)
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("inverse_quadratic", 1.5))
    ops = build_grad_matrices(system, proj)
    q = sampling_density(circle, cloud)
    return cloud, ops, q


def plane_system(N=150, seed=3, s=0.02):
    # tilted 2-plane in R^3 with its exact projector; the near-flat kernel
    # with a deep pseudo-inverse cut keeps the low-degree polynomial space,
    # which reproduces linear data and its gradient
    rng = np.random.default_rng(seed)
    t1 = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    t2 = np.array([0.0, 1.0, 0.0])
    coeff = rng.uniform(-1.0, 1.0, size=(N, 2))
    pts = coeff[:, :1] * t1 + coeff[:, 1:] * t2
    cloud = PointCloud(points=pts, intrinsic=None, spec=None)
    P = np.outer(t1, t1) + np.outer(t2, t2)
    proj = ProjectionField(mats=np.broadcast_to(P, (N, 3, 3)).copy(),
                           source="analytic", K_used=0)
    system = build_system(cloud, KernelModel("gaussian", s, pinv_tol=1e-12))
    return cloud, proj, system, coeff, (t1, t2)


# -- gradient matrices --------------------------------------------------------


def test_gradient_of_constant_near_zero(circle_ops):
    _, ops, _ = circle_ops
    one = np.ones(ops.N)
    for Gi in ops.G:
        assert np.abs(Gi @ one).max() <= 1e-3


def test_circle_sine_gradient(circle_ops):
    cloud, ops, _ = circle_ops
    theta = np.arctan2(cloud.points[:, 1], cloud.points[:, 0])
    f = np.sin(theta)
    got = np.column_stack([ops.G[0] @ f, ops.G[1] @ f])
    want = np.cos(theta)[:, None] * np.column_stack([-np.sin(theta),
                                                     np.cos(theta)])
    assert np.abs(got - want).max() <= 1e-3


def test_plane_linear_gradient():
    _, proj, system, coeff, (t1, t2) = plane_system()
    a, b = 0.7, -1.3
    f = a * coeff[:, 0] + b * coeff[:, 1]
    ops = build_grad_matrices(system, proj)
    want = a * t1 + b * t2
    got = np.column_stack([Gi @ f for Gi in ops.G])
    assert np.abs(got - want[None, :]).max() <= 1e-6


def test_grad_requires_matching_cloud(circle_ops):
    cloud, ops, _ = circle_ops
    short = ProjectionField(mats=ops.proj.mats[:100], source="analytic",
                            K_used=0)
    system = build_system(cloud, KernelModel("inverse_quadratic", 1.5))
    with pytest.raises(ValueError):
        build_grad_matrices(system, short)


def test_keep_ambient_toggle(circle_ops):
    cloud, ops, _ = circle_ops
    assert ops.ambient is not None and len(ops.ambient) == 2
    lean = build_grad_matrices(ops.system, ops.proj, keep_ambient=False)
    assert lean.ambient is None
    for Ga, Gb in zip(ops.G, lean.G):
        assert np.allclose(Ga, Gb, atol=1e-13)


# -- non-symmetric Laplacian --------------------------------------------------


def test_nonsymmetric_constant_near_harmonic(circle_ops):
    _, ops, _ = circle_ops
    L = laplace_beltrami_nonsymmetric(ops)
    assert np.abs(L @ np.ones(ops.N)).max() <= 1e-2


def test_circle_spectrum_squares(circle_ops):
    # unit circle Laplacian spectrum is k^2 with multiplicity 2
    _, ops, _ = circle_ops
    L = laplace_beltrami_nonsymmetric(ops)
    res = solve_nonsymmetric(L, k=ops.N)
    vals = res.nontrivial_values()[:6]
    assert np.abs(vals.imag).max() <= 1e-3
    assert np.abs(vals.real - np.array([1, 1, 4, 4, 9, 9])).max() <= 1e-2


# -- symmetric pencil ---------------------------------------------------------


def test_symmetric_A_exactly_symmetric(circle_ops):
    _, ops, q = circle_ops
    pair = laplace_beltrami_symmetric(ops, q)
    assert np.array_equal(pair.A, pair.A.T)
    assert pair.B_diag is not None and np.all(pair.B_diag > 0)


def test_symmetric_psd(circle_ops):
    _, ops, q = circle_ops
    pair = laplace_beltrami_symmetric(ops, q)
    lam = np.linalg.eigvalsh(pair.A)
    assert lam.min() >= -1e-8 * np.abs(lam).max()


def test_symmetric_rejects_bad_density(circle_ops):
    _, ops, q = circle_ops
    bad = q.copy()
    bad[7] = 0.0
    with pytest.raises(ValueError):
        laplace_beltrami_symmetric(ops, bad)
    with pytest.raises(ValueError):
        laplace_beltrami_symmetric(ops, q[:-1])


def test_constant_density_cancels(circle_ops):
    # q = c: generalized eigenvalues equal plain eigenvalues of sum G_i^T G_i
    _, ops, _ = circle_ops
    plain = np.linalg.eigvalsh(sum(Gi.T @ Gi for Gi in ops.G))
    for c in (1.0, 0.25):
        pair = laplace_beltrami_symmetric(ops, np.full(ops.N, c))
        res = solve_symmetric(pair, k=ops.N)
        assert np.allclose(np.sort(res.values), np.sort(plain),
                           atol=1e-8 * max(1.0, plain.max()))


def test_b_orthogonal_eigenvectors(circle_ops):
    _, ops, q = circle_ops
    pair = laplace_beltrami_symmetric(ops, q)
    res = solve_symmetric(pair, k=40)
    V = res.vectors[:, :40]
    gram = V.T @ (pair.B_diag[:, None] * V)
    assert np.abs(gram - np.eye(40)).max() <= 1e-8


def test_scaling_covariance(circle_ops):
    # G_i -> c G_i multiplies both spectra by c^2
    _, ops, q = circle_ops
    c = 3.0
    scaled = ScalarOperatorSet(G=[c * Gi for Gi in ops.G], proj=ops.proj,
                               kernel=ops.kernel, system=ops.system)
    L = laplace_beltrami_nonsymmetric(ops)
    Ls = laplace_beltrami_nonsymmetric(scaled)
    assert np.allclose(Ls, c ** 2 * L, atol=1e-10)
    lam = solve_symmetric(laplace_beltrami_symmetric(ops, q), k=10).values
    lam_s = solve_symmetric(laplace_beltrami_symmetric(scaled, q), k=10).values
    assert np.allclose(lam_s, c ** 2 * lam, atol=1e-7 * max(1.0, lam_s.max()))


def test_formulation_consistency_grid_circle():
    # equispaced nodes make the weak-form quadrature exact to rounding
    circle = Ellipse(1.0)
    cloud = sample_manifold(circle, 400, seed=0, mode="grid")
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("inverse_quadratic", 0.5))
    ops = build_grad_matrices(system, proj)
    L = laplace_beltrami_nonsymmetric(ops)
    nrbf = np.abs(solve_nonsymmetric(L, k=400).nontrivial_values()[:5])
    pair = laplace_beltrami_symmetric(ops, sampling_density(circle, cloud))
    srbf = solve_symmetric(pair, k=400).nontrivial_values()[:5]
    assert np.abs(nrbf - srbf).max() / srbf.max() <= 5e-2


def test_sphere_grid_symmetric_spectrum():
    sphere = Sphere()
    cloud = sample_manifold(sphere, 1024, seed=0, mode="grid")
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("inverse_quadratic", 0.5))
    ops = build_grad_matrices(system, proj)
    pair = laplace_beltrami_symmetric(ops, sampling_density(sphere, cloud))
    res = solve_symmetric(pair, k=1024)
    assert res.trivial[0] and abs(res.values[0]) <= 1e-8
    vals = res.nontrivial_values()[:8]
    want = np.array([2, 2, 2, 6, 6, 6, 6, 6], dtype=float)
    assert (np.abs(vals - want) / want).max() <= 0.15


def test_reliable_mode_budget():
    assert reliable_mode_budget(1024) == 32
    assert reliable_mode_budget(2500) == 50
    assert reliable_mode_budget(10) == 3
