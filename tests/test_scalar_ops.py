"""Tangential derivative matrices and the two discrete Laplacians."""

import warnings

import numpy as np
import pytest

from manifold_rbf.rbf import KernelModel, build_system, derivative_matrices
from manifold_rbf.scalar_ops import (ScalarOperatorSet, ambient_gradient,
                                     build_grad_matrices,
                                     laplace_beltrami_nonsymmetric,
                                     laplace_beltrami_symmetric)
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
    q = sampling_density(cloud)
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
    T = np.column_stack([t1, t2])
    proj = ProjectionField(frames=np.broadcast_to(T, (N, 3, 2)).copy(),
                           source="analytic", K_used=0)
    system = build_system(cloud, KernelModel("gaussian", s, pinv_tol=1e-12))
    return cloud, proj, system, coeff, (t1, t2)


# -- gradient matrices --------------------------------------------------------


def test_gradient_of_constant_near_zero(circle_ops):
    _, ops, _ = circle_ops
    one = ops.U.T @ np.ones(ops.N)      # D_a = G_a U^T
    for Gi in ops.G:
        assert np.abs(Gi @ one).max() <= 1e-3


def test_circle_sine_gradient(circle_ops):
    cloud, ops, _ = circle_ops
    theta = np.arctan2(cloud.points[:, 1], cloud.points[:, 0])
    f = ops.U.T @ np.sin(theta)
    got = np.column_stack([ambient_gradient(ops, i) @ f for i in range(2)])
    want = np.cos(theta)[:, None] * np.column_stack([-np.sin(theta),
                                                     np.cos(theta)])
    assert np.abs(got - want).max() <= 1e-3


def test_plane_linear_gradient():
    _, proj, system, coeff, (t1, t2) = plane_system()
    a, b = 0.7, -1.3
    f = a * coeff[:, 0] + b * coeff[:, 1]
    ops = build_grad_matrices(system, proj)
    want = a * t1 + b * t2
    got = np.column_stack([ambient_gradient(ops, i) @ (ops.U.T @ f)
                           for i in range(3)])
    assert np.abs(got - want[None, :]).max() <= 1e-6


def test_grad_requires_matching_cloud(circle_ops):
    cloud, ops, _ = circle_ops
    short = ProjectionField(frames=ops.proj.frames[:100], source="analytic",
                            K_used=0)
    system = build_system(cloud, KernelModel("inverse_quadratic", 1.5))
    with pytest.raises(ValueError):
        build_grad_matrices(system, short)


def test_frame_gradient_matches_projected_ambient():
    # sum_a T_ia D_a equals the projected ambient form sum_m P_im D_m
    sphere = Sphere()
    cloud = sample_manifold(sphere, 200, seed=2, mode="random_area")
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("inverse_quadratic", 1.0))
    ops = build_grad_matrices(system, proj)
    assert len(ops.G) == 2
    D = derivative_matrices(system, np.broadcast_to(np.eye(3), (200, 3, 3)))
    P = proj.mats
    # the two orders of summation differ by rounding amplified by Phi^+
    tol = 10 * np.finfo(float).eps * system.sigma[0] / system.sigma[-1]
    for i in range(3):
        want = sum(P[:, i, m][:, None] * D[m] for m in range(3))
        got = ambient_gradient(ops, i)
        assert np.abs(got - want).max() <= tol * np.abs(want).max()


# -- non-symmetric Laplacian --------------------------------------------------


def test_nonsymmetric_constant_near_harmonic(circle_ops):
    _, ops, _ = circle_ops
    L = laplace_beltrami_nonsymmetric(ops)      # L U^T is the operator
    assert np.abs(L @ (ops.U.T @ np.ones(ops.N))).max() <= 1e-2


def test_circle_spectrum_squares(circle_ops):
    # unit circle Laplacian spectrum is k^2 with multiplicity 2
    _, ops, _ = circle_ops
    L = laplace_beltrami_nonsymmetric(ops)
    res = solve_nonsymmetric(L, basis=ops.U, k=ops.N)
    vals = res.nontrivial_values()[:6]
    assert np.abs(vals.imag).max() <= 1e-3
    assert np.abs(vals.real - np.array([1, 1, 4, 4, 9, 9])).max() <= 1e-2


# -- symmetric pencil ---------------------------------------------------------


def test_symmetric_A_exactly_symmetric(circle_ops):
    _, ops, q = circle_ops
    pair = laplace_beltrami_symmetric(ops, q)
    assert np.array_equal(pair.A, pair.A.T)
    assert pair.B_diag is not None and np.all(pair.B_diag > 0)


def test_symmetric_form_sums_the_weighted_grams():
    # one weighted buffer serves every direction, with the same bits as a
    # fresh copy per direction
    cloud = sample_manifold(Sphere(), 120, seed=1, mode="random_area")
    system = build_system(cloud, KernelModel("inverse_quadratic", 0.5))
    ops = build_grad_matrices(system, analytic_projection(cloud))
    q = np.random.default_rng(1).uniform(0.5, 2.0, cloud.N)
    root = np.sqrt(1.0 / q)[:, None]
    want = 0.0
    for Ga in ops.G:
        X = root * Ga
        want += X.T @ X
    assert len(ops.G) == 2
    assert np.array_equal(laplace_beltrami_symmetric(ops, q).A, want)


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
    bad[7] = np.nan
    with pytest.raises(ValueError):
        laplace_beltrami_symmetric(ops, bad)
    with pytest.raises(ValueError):
        laplace_beltrami_symmetric(ops, None)


def test_constant_density_cancels(circle_ops):
    # q = c: generalized eigenvalues equal plain eigenvalues of sum G_i^T G_i
    _, ops, _ = circle_ops
    plain = np.linalg.eigvalsh(sum(Da.T @ Da for Da in ops.G))
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
                               U=ops.U)
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
    nrbf = np.abs(solve_nonsymmetric(L, basis=ops.U, k=400)
                  .nontrivial_values()[:5])
    pair = laplace_beltrami_symmetric(ops, sampling_density(cloud))
    srbf = solve_symmetric(pair, k=400).nontrivial_values()[:5]
    assert np.abs(nrbf - srbf).max() / srbf.max() <= 5e-2


def test_sphere_grid_symmetric_spectrum():
    sphere = Sphere()
    cloud = sample_manifold(sphere, 1024, seed=0, mode="grid")
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("inverse_quadratic", 0.5))
    ops = build_grad_matrices(system, proj)
    pair = laplace_beltrami_symmetric(ops, sampling_density(cloud))
    res = solve_symmetric(pair, k=1024)
    assert res.trivial[0] and abs(res.values[0]) <= 1e-8
    vals = res.nontrivial_values()[:8]
    want = np.array([2, 2, 2, 6, 6, 6, 6, 6], dtype=float)
    assert (np.abs(vals - want) / want).max() <= 0.15



# -- degenerate input -----------------------------------------------------------


def test_duplicated_points_give_structural_zeros():
    # every point of a 90-point sphere cloud appears twice: Phi has rank at
    # most 90 of 180, and both Laplacians stay finite with N - rank_L exact
    # structural zeros in their spectra
    sphere = Sphere()
    base = sample_manifold(sphere, 90, seed=4, mode="random_area")
    cloud = PointCloud(points=np.vstack([base.points, base.points]),
                       intrinsic=np.vstack([base.intrinsic, base.intrinsic]),
                       spec=sphere)
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("gaussian", 3.0))
    assert 0 < system.rank_L <= 90
    ops = build_grad_matrices(system, proj)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        srbf = solve_symmetric(laplace_beltrami_symmetric(ops, np.ones(180)),
                               180)
        nrbf = solve_nonsymmetric(laplace_beltrami_nonsymmetric(ops),
                                  basis=ops.U, k=180)
    for res in (srbf, nrbf):
        assert len(res.all_values) == 180
        assert np.all(np.isfinite(res.all_values))
        assert np.all(np.isfinite(res.vectors))
        assert res.structural_zeros == 180 - system.rank_L
        assert res.rank_L <= system.rank_L
    assert srbf.all_values.min() >= -srbf.trivial_cutoff
