"""Manifold zoo: samplers, projections, densities, reference spectra."""

import re

import numpy as np
import pytest
import scipy.linalg

from manifold_rbf import zoo
from manifold_rbf.vector_ops import LAPLACIANS, stacked
from manifold_rbf.zoo import (Ellipse, FlatTorus, GeneralTorus, ManifoldSpec,
                              PointCloud, Sphere, Torus, analytic_projection,
                              embed, intrinsic_box, metric_sqrt_det,
                              sample_manifold, sampling_density,
                              scalar_eigen_truth, sturm_liouville_truth,
                              vector_eigen_truth, volume)
from manifold_rbf.zoo import _sl_modes, _torus_constants

ALL_SPECS = [Ellipse(2.0), Torus(2.0), GeneralTorus(2.0, 3),
             GeneralTorus(2.0, 21), FlatTorus(2, 1), FlatTorus(3, 1),
             Sphere()]
# the default instance of each kind, as a bare config entry builds it
ZOO_DEFAULTS = {spec.kind: spec for spec in (
    Ellipse(2.0), Torus(2.0), GeneralTorus(2.0), FlatTorus(2), Sphere())}


# -- samplers ------------------------------------------------------------


def test_sphere_north_pole():
    cloud = sample_manifold(Sphere(), 1, seed=0)
    pt = embed(Sphere(), np.array([[0.0, 0.3]]))
    assert np.allclose(pt, [[0.0, 0.0, 1.0]], atol=1e-15)


def test_ellipse_quarter_turn():
    pt = embed(Ellipse(2.0), np.array([[np.pi / 2]]))
    assert np.allclose(pt, [[0.0, 2.0]], atol=1e-15)


def test_flat_torus_row_norm():
    # each (cos t_i, sin t_i) pair contributes 1 to the squared norm
    spec = FlatTorus(2, 1)
    cloud = sample_manifold(spec, 100, seed=3)
    norms = np.linalg.norm(cloud.points, axis=1)
    assert np.allclose(norms, np.sqrt(2.0), atol=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind + str(s.n))
@pytest.mark.parametrize("mode", ["random_intrinsic", "random_area"])
def test_embedding_residual(spec, mode):
    cloud = sample_manifold(spec, 200, seed=7, mode=mode)
    again = embed(spec, cloud.intrinsic)
    assert np.max(np.abs(again - cloud.points)) <= 1e-12
    assert cloud.mode == mode


def test_grid_requires_lattice_count():
    with pytest.raises(ValueError, match="perfect"):
        sample_manifold(Torus(2.0), 1000, mode="grid")
    cloud = sample_manifold(Torus(2.0), 900, mode="grid")
    assert cloud.N == 900


def test_grid_sphere_avoids_poles():
    cloud = sample_manifold(Sphere(), 64, mode="grid")
    theta = cloud.intrinsic[:, 0]
    assert theta.min() > 0.0 and theta.max() < np.pi


def test_random_area_matches_volume_density():
    # area-uniform draws put mass ~ sqrt(det g); check the theta histogram
    # on the torus against the analytic marginal (a + cos theta)/(2 pi a)
    spec = Torus(2.0)
    cloud = sample_manifold(spec, 20000, seed=11, mode="random_area")
    th = cloud.intrinsic[:, 0]
    hist, edges = np.histogram(th, bins=16, range=(0, 2 * np.pi),
                               density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    expected = (spec.a + np.cos(centers)) / (2 * np.pi * spec.a)
    assert np.max(np.abs(hist - expected)) < 0.02


def test_sampler_rejects_nonpositive_N():
    with pytest.raises(ValueError):
        sample_manifold(Sphere(), 0)


def test_sampler_names_its_modes_when_refusing_one():
    with pytest.raises(ValueError, match=re.escape(str(zoo.SAMPLE_MODES))):
        sample_manifold(Sphere(), 10, mode="random")


# -- analytic projection -------------------------------------------------


def test_projection_sphere_pole():
    cloud = sample_manifold(Sphere(), 1, seed=0)
    cloud.intrinsic[0] = (1e-8, 0.0)   # near-pole point, tangent plane z=0
    cloud.points[:] = embed(Sphere(), cloud.intrinsic)
    P = analytic_projection(cloud).mats[0]
    assert np.allclose(P, np.diag([1.0, 1.0, 0.0]), atol=1e-7)


def test_projection_ellipse_theta0():
    spec = Ellipse(2.0)
    cloud = sample_manifold(spec, 1, seed=0)
    cloud.intrinsic[0] = (0.0,)
    cloud.points[:] = embed(spec, cloud.intrinsic)
    P = analytic_projection(cloud).mats[0]
    assert np.allclose(P, np.diag([0.0, 1.0]), atol=1e-14)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind + str(s.n))
def test_projection_properties(spec):
    cloud = sample_manifold(spec, 300, seed=5)
    proj = analytic_projection(cloud)
    mats = proj.mats
    d = spec.d
    gram = proj.frames.transpose(0, 2, 1) @ proj.frames
    assert np.abs(gram - np.eye(d)).max() <= 1e-12
    sym = np.max(np.abs(mats - np.transpose(mats, (0, 2, 1))))
    idem = max(np.linalg.norm(P @ P - P) for P in mats)
    tr = np.max(np.abs(np.trace(mats, axis1=1, axis2=2) - d))
    sq = np.max(np.abs(np.sum(mats ** 2, axis=(1, 2)) - d))
    assert sym == 0.0
    assert idem <= 1e-12
    assert tr <= 1e-12
    assert sq <= 1e-12     # sum of squared entries equals trace for projectors


def test_projection_needs_intrinsic():
    cloud = sample_manifold(Sphere(), 10, seed=0)
    cloud = type(cloud)(points=cloud.points, intrinsic=None, spec=cloud.spec)
    with pytest.raises(ValueError):
        analytic_projection(cloud)


# -- derivatives of the one formula ----------------------------------------
# The Jacobian and the harmonic gradients are complex-step derivatives of
# embed and psi. These tests hold them to central differences, so that a
# non-analytic edit (abs, a real cast) fails here rather than in the spectra.

def central_difference(f, x, h=1e-6):
    """(N, ..., k) derivative of f: (N, k) -> (N, ...) by central
    differences."""
    return np.stack([(f(x + h * e) - f(x - h * e)) / (2.0 * h)
                     for e in np.eye(x.shape[1])], axis=-1)


def torus_area_element(spec, theta):
    b, c = _torus_constants(spec)
    return np.sqrt(b * c) * (spec.a + np.cos(theta[:, 0]))


# sqrt(det g) of each kind by hand: the metric is diag(b, c (a + cos th)^2)
# on the tori, diag(1, sin^2 th) on the sphere, sin^2 t + a^2 cos^2 t on
# the ellipse and the identity on the flat torus
AREA_ELEMENTS = {
    "ellipse": lambda spec, t: np.sqrt(np.sin(t[:, 0]) ** 2
                                       + spec.a ** 2 * np.cos(t[:, 0]) ** 2),
    "torus": torus_area_element,
    "general_torus": torus_area_element,
    "flat_torus": lambda spec, t: np.ones(len(t)),
    "sphere": lambda spec, t: np.sin(t[:, 0]),
}


@pytest.mark.parametrize("kind", zoo.KINDS)
def test_jacobian_and_area_element_are_those_of_embed(kind):
    spec = ZOO_DEFAULTS[kind]
    theta = sample_manifold(spec, 200, seed=6).intrinsic
    J = zoo.embedding_jacobian(spec, theta)
    assert J.shape == (200, spec.n, spec.d)
    fd = central_difference(lambda t: embed(spec, t), theta)
    assert np.max(np.abs(J - fd)) <= 1e-8
    want = AREA_ELEMENTS[kind](spec, theta)
    rel = np.abs(metric_sqrt_det(spec, theta) - want) / want
    assert np.max(rel) <= 1e-13


def test_sphere_vector_truth_fields_are_built_from_harmonic_gradients():
    cloud = sample_manifold(Sphere(), 200, seed=6, mode="random_area")
    x = cloud.points
    want = []      # per degree: the rotational family, then the gradient one
    for l in (1, 2, 3):
        grads = central_difference(lambda y: zoo._sphere_harmonics(y, l), x)
        grads = list(grads.transpose(1, 0, 2))
        want += [np.cross(x, g) for g in grads]
        want += [g - np.sum(x * g, axis=1, keepdims=True) * x
                 for g in grads]
    got = list(vector_eigen_truth(Sphere(), "Hodge", 3).columns(cloud))
    assert len(got) == len(want) == 30
    for field, ref in zip(got, want):
        assert np.max(np.abs(field - ref)) <= 1e-8


@pytest.mark.parametrize("kind", zoo.KINDS)
def test_rejection_envelope_bounds_the_area_element_tightly(kind):
    # random_area accepts with probability sqrt(det g) / sup: a sup below
    # the maximum would bias the draws without any error
    spec = ZOO_DEFAULTS[kind]
    theta = sample_manifold(spec, 400 ** spec.d, mode="grid").intrinsic
    peak = np.max(metric_sqrt_det(spec, theta))
    sup = zoo._sqrt_det_sup(spec)
    assert peak <= sup <= 1.001 * peak


# -- sampling density -----------------------------------------------------


def test_density_flat_torus_constant():
    spec = FlatTorus(2, 1)
    cloud = sample_manifold(spec, 50, seed=1)
    q = sampling_density(cloud)
    assert np.allclose(q, 1.0 / volume(spec), rtol=1e-12)


def test_density_torus_ratio():
    # q ~ 1/(a + cos theta): inner-to-outer ratio (a+1)/(a-1) = 3 at a=2
    spec = Torus(2.0)
    cloud = sample_manifold(spec, 2, seed=0)
    cloud.intrinsic[0] = (np.pi, 0.0)
    cloud.intrinsic[1] = (0.0, 0.0)
    cloud.points[:] = embed(spec, cloud.intrinsic)
    q = sampling_density(cloud)
    assert abs(q[0] / q[1] - 3.0) <= 1e-12


def test_density_sphere_polar_blowup():
    spec = Sphere()
    cloud = sample_manifold(spec, 2, seed=0)
    cloud.intrinsic[0] = (np.pi / 2, 0.0)
    cloud.intrinsic[1] = (np.pi / 6, 0.0)
    cloud.points[:] = embed(spec, cloud.intrinsic)
    q = sampling_density(cloud)
    # q ~ 1/sin(theta); sin(pi/2)/sin(pi/6) = 2
    assert abs(q[1] / q[0] - 2.0) <= 1e-12


@pytest.mark.parametrize("kind", zoo.KINDS)
def test_density_of_area_uniform_draws_is_one_over_the_volume(kind):
    # the density is the cloud's own draw's: a random_area cloud is
    # volume-uniform whatever its intrinsic coordinates
    spec = ZOO_DEFAULTS[kind]
    cloud = sample_manifold(spec, 50, seed=1, mode="random_area")
    assert np.array_equal(sampling_density(cloud),
                          np.full(50, 1.0 / volume(spec)))


def test_density_integrates_to_one():
    # Monte-Carlo over intrinsic-uniform draws: E[q/q] = int q dVol = 1
    for spec in (Torus(2.0), Sphere()):
        cloud = sample_manifold(spec, 40000, seed=2)
        box = intrinsic_box(spec)
        box_vol = np.prod([hi - lo for lo, hi in box])
        sq = metric_sqrt_det(spec, cloud.intrinsic)
        q = sampling_density(cloud)
        integral = np.mean(q * sq) * box_vol    # int q sqrt(g) dtheta
        assert abs(integral - 1.0) < 5e-3


# -- scalar eigen truth ----------------------------------------------------


def test_flat_torus_4d_multiplicities():
    truth = scalar_eigen_truth(FlatTorus(4, 1), 5)
    vals = [v for v, _m in truth.values[:5]]
    mults = [m for _v, m in truth.values[:5]]
    assert vals == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert mults == [1, 8, 24, 32, 24]


def test_flat_torus_2d_values():
    truth = scalar_eigen_truth(FlatTorus(2, 1), 5)
    assert truth.values[:5] == [(0.0, 1), (1.0, 4), (2.0, 4), (4.0, 4),
                                (5.0, 8)]


def test_sphere_scalar_truth():
    truth = scalar_eigen_truth(Sphere(), 4)
    assert truth.values[:4] == [(0.0, 1), (2.0, 3), (6.0, 5), (12.0, 7)]


def test_sphere_truths_serve_any_count():
    # a study asks for compare_count distinct values; every degree of
    # harmonic is there, so the sphere no longer stops at l = 3
    truth = scalar_eigen_truth(Sphere(), 20)
    assert truth.values[-1] == (380.0, 39) and len(truth.values) == 20
    assert len(truth.expanded(400)) == 400
    for name in LAPLACIANS:
        assert len(vector_eigen_truth(Sphere(), name, 20).values) == 20


@pytest.mark.parametrize("spec", [Torus(2.0), GeneralTorus(2.0, 21),
                                  FlatTorus(2, 1), FlatTorus(3, 1), Sphere()],
                         ids=lambda s: f"{s.kind}-{s.n}")
def test_truth_leading_modes_do_not_depend_on_the_count(spec):
    # a study's truth is asked for compare_count values; its leading modes
    # must be the bits a larger request gives
    small, large = scalar_eigen_truth(spec, 12), scalar_eigen_truth(spec, 40)
    assert small.values == large.values[:12]
    cloud = sample_manifold(spec, 50, seed=3)
    assert np.array_equal(small.basis(cloud, 12), large.basis(cloud, 12))


def test_sphere_columns_are_harmonics():
    # spot-check: the expanded basis columns are L2-independent on a grid
    truth = scalar_eigen_truth(Sphere(), 4)
    cloud = sample_manifold(Sphere(), 400, seed=9, mode="random_area")
    F = truth.basis(cloud, 16)
    gram = F.T @ F / cloud.N
    assert np.linalg.matrix_rank(gram, tol=1e-6) == 16


def sphere_quadrature(n=16):
    """Gauss-Legendre in z times the trapezoid rule in phi on 2n angles:
    exact for the product of two harmonics of degree below n."""
    z, wz = np.polynomial.legendre.leggauss(n)
    phi = np.pi * np.arange(2 * n) / n
    Z, P = np.meshgrid(z, phi, indexing="ij")
    rho = np.sqrt(1.0 - Z * Z)
    x = np.column_stack([(rho * np.cos(P)).ravel(), (rho * np.sin(P)).ravel(),
                         Z.ravel()])
    return x, np.repeat(wz * np.pi / n, 2 * n)


@pytest.mark.parametrize("l", range(13))
def test_sphere_harmonics_are_harmonic_homogeneous_and_bounded(l):
    cloud = sample_manifold(Sphere(), 300, seed=5, mode="random_area")
    x = cloud.points
    psi = zoo._sphere_harmonics(x, l)
    assert psi.shape == (300, 2 * l + 1)
    # Laplacian in R^3: central differences of the complex-step gradient
    hessian = central_difference(
        lambda y: zoo._complex_step(lambda v: zoo._sphere_harmonics(v, l), y),
        x)
    assert np.max(np.abs(np.trace(hessian, axis1=-2, axis2=-1))) <= 1e-6
    for t in (0.7, 1.3):
        assert np.allclose(zoo._sphere_harmonics(t * x, l), t ** l * psi,
                           rtol=0, atol=1e-13)
    # Schmidt semi-normalised: the squares of one degree sum to one
    assert np.max(np.abs(psi)) <= 1.0 + 1e-13
    assert np.allclose(np.sum(psi ** 2, axis=1), 1.0, rtol=0, atol=1e-13)


def test_sphere_harmonics_are_orthogonal_with_equal_norms_per_degree():
    x, w = sphere_quadrature()
    F = np.hstack([zoo._sphere_harmonics(x, l) for l in range(13)])
    norms = np.concatenate([np.full(2 * l + 1, 4.0 * np.pi / (2 * l + 1))
                            for l in range(13)])
    assert np.abs(F.T @ (w[:, None] * F) - np.diag(norms)).max() <= 1e-13


def cartesian_harmonic(x, *idx):
    """The Cartesian harmonics the sphere truth listed up to l = 3:
    x_p, 3 x_p x_q - d_pq r^2, and 15 x_p x_q x_r - 3 r^2 (d_pq x_r +
    d_qr x_p + d_rp x_q)."""
    r2 = np.sum(x * x, axis=1)
    if len(idx) == 1:
        return x[:, idx[0]]
    if len(idx) == 2:
        p, q = idx
        return 3.0 * x[:, p] * x[:, q] - (r2 if p == q else 0.0)
    p, q, r = idx
    return 15.0 * x[:, p] * x[:, q] * x[:, r] - 3.0 * r2 * (
        (p == q) * x[:, r] + (q == r) * x[:, p] + (r == p) * x[:, q])


CARTESIAN_FAMILIES = {
    1: [(0,), (1,), (2,)],
    2: [(0, 1), (0, 2), (1, 2), (0, 0), (1, 1)],
    3: [(0, 0, 1), (0, 0, 2), (0, 1, 1), (1, 1, 2), (0, 2, 2), (1, 2, 2),
        (0, 1, 2)],
}
# the vector spectra the sphere truth held as a table up to l = 3, with
# their fields' (rotational?, l) blocks in expanded order
BOTH = [(rotational, l) for l in (1, 2, 3) for rotational in (True, False)]
VECTOR_TABLE = {
    "Bochner": ([(1.0, 6), (5.0, 10), (11.0, 14)], BOTH),
    "Hodge": ([(2.0, 6), (6.0, 10), (12.0, 14)], BOTH),
    "Lich": ([(0.0, 3), (2.0, 3), (4.0, 5), (10.0, 12)], BOTH[:5]),
}


def span_residual(A, B):
    """Largest relative residual of B's columns off the span of A's."""
    Q, _ = np.linalg.qr(A)
    return np.max(np.linalg.norm(B - Q @ (Q.T @ B), axis=0)
                  / np.linalg.norm(B, axis=0))


def test_sphere_truths_span_the_cartesian_families_up_to_degree_3():
    cloud = sample_manifold(Sphere(), 200, seed=7, mode="random_area")
    x = cloud.points
    old = {l: np.column_stack([cartesian_harmonic(x, *idx) for idx in fam])
           for l, fam in CARTESIAN_FAMILIES.items()}
    for l in (1, 2, 3):
        new = zoo._sphere_harmonics(x, l)
        assert span_residual(old[l], new) <= 1e-13
        assert span_residual(new, old[l]) <= 1e-13
    assert np.array_equal(zoo._sphere_harmonics(x, 1), x)
    for name, (table, blocks) in VECTOR_TABLE.items():
        truth = vector_eigen_truth(Sphere(), name, len(table))
        assert truth.values == table
        old = []
        for rotational, l in blocks:
            for idx in CARTESIAN_FAMILIES[l]:
                g = zoo._complex_step(lambda y: cartesian_harmonic(y, *idx), x)
                old.append(stacked(np.cross(x, g) if rotational else
                                   g - np.sum(x * g, axis=1, keepdims=True)
                                   * x))
        old, new = np.column_stack(old), truth.basis(cloud, len(old))
        start = 0
        for _value, mult in table:
            block = slice(start, start + mult)
            start += mult
            assert span_residual(old[:, block], new[:, block]) <= 1e-13
            assert span_residual(new[:, block], old[:, block]) <= 1e-13


def test_sphere_degree_one_fields_are_exact():
    cloud = sample_manifold(Sphere(), 100, seed=2, mode="random_area")
    x = cloud.points
    fields = list(vector_eigen_truth(Sphere(), "Hodge", 1).columns(cloud))
    for p, e in enumerate(np.eye(3)):
        assert np.array_equal(fields[p], np.cross(x, e))
        assert np.array_equal(fields[3 + p], e - x[:, p:p + 1] * x)


def test_lich_kernel_is_the_rotations_and_hodge_has_none():
    cloud = sample_manifold(Sphere(), 100, seed=2, mode="random_area")
    lich = vector_eigen_truth(Sphere(), "Lich", 20)
    assert lich.values[0] == (0.0, 3) and lich.values[1][0] > 0.0
    killing = list(lich.columns(cloud))[:3]
    for U, e in zip(killing, np.eye(3)):
        assert np.array_equal(U, np.cross(cloud.points, e))
    assert min(v for v, _m in vector_eigen_truth(Sphere(), "Hodge",
                                                 20).values) > 0.0


def test_scalar_truth_rejects_ellipse():
    with pytest.raises(ValueError):
        scalar_eigen_truth(Ellipse(2.0), 4)


# -- Sturm-Liouville truth --------------------------------------------------


def test_sl_zero_mode():
    truth = sturm_liouville_truth(GeneralTorus(2.0, 3), 30)
    lam0, mult0 = truth.values[0]
    assert lam0 == 0.0 and mult0 == 1


def test_sl_first_nonzero_vs_2d_fd_oracle():
    """Cross-check the separated 1D solve against a full 2D finite
    difference Laplace-Beltrami on the intrinsic torus grid.

    Oracle (frozen): 384x384 periodic flux-form FD discretization of
    (1/sqrt g) d_i (sqrt g g^{ij} d_j) on the a=2, n=3 torus metric
    diag(1, (2+cos th)^2); second smallest eigenvalue via sparse
    shift-invert. Value 0.2493624948, resolution-verified at 256x256
    (0.2493555423).
    """
    truth = sturm_liouville_truth(GeneralTorus(2.0, 3), 30)
    lam2 = truth.values[1][0]
    assert abs(lam2 - 0.2493624948) / 0.2493624948 <= 1e-3


@pytest.mark.parametrize("spec", [Torus(2.0), GeneralTorus(2.0, 21)],
                         ids=lambda s: s.kind + str(s.n))
def test_sl_self_converges_in_K(spec, monkeypatch):
    # doubling the highest harmonic of the basis moves no value
    coarse = [sturm_liouville_truth(spec, count) for count in (40, 200)]
    monkeypatch.setattr(zoo, "_SL_K", 2 * zoo._SL_K)
    fine = [sturm_liouville_truth(spec, count) for count in (40, 200)]
    for got, want in zip(coarse, fine):
        assert [mult for _lam, mult in got.values] \
            == [mult for _lam, mult in want.values]
        a = np.array([lam for lam, _mult in got.values])
        b = np.array([lam for lam, _mult in want.values])
        assert a[0] == b[0] == 0.0
        assert np.max(np.abs(a[1:] / b[1:] - 1.0)) <= 1e-10


def test_sl_sorted_nonnegative():
    truth = sturm_liouville_truth(GeneralTorus(2.0, 3), 30)
    vals = truth.expanded(30)
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) >= -1e-12)


# The first 12 distinct (lambda, m) of the torus pencil, frozen from the
# second-order flux-form finite-difference solve in theta that the Galerkin
# solve replaced (reflection-split periodic tridiagonal matrices, bisection
# to full accuracy), run at N_theta = 2048 and 8192 and Richardson-
# extrapolated as (16 lambda_8192 - lambda_2048) / 15. Both grids gave the
# same m order. The extrapolation from 4096 and 16384 agrees with these to
# 1.3e-9 (Torus) and 5.4e-9 (n=21) relative, which bounds their own error.
SL_RICHARDSON = {
    "torus3": ([0, 1, 2, 0, 0, 1, 3, 1, 2, 4, 3, 2], [
        0.0, 0.24936805684556024, 0.7945678016224217, 0.9767313134938982,
        1.122288271251697, 1.2637169465951352, 1.5451508276450723,
        1.6630145377532846, 2.0406181487482784, 2.51420019428042,
        3.1532385560300713, 3.175251354216501]),
    "general_torus21": ([0, 1, 2, 3, 4, 5, 0, 1, 6, 0, 2, 1], [
        0.0, 0.02812054536237459, 0.10480508685238114, 0.2146685412109946,
        0.34723350265073044, 0.4995883010109537, 0.630243677170074,
        0.6596517191292758, 0.6721780533111692, 0.7241654659519555,
        0.7462867893477474, 0.7770481397654901]),
}


@pytest.mark.parametrize("spec", [Torus(2.0), GeneralTorus(2.0, 21)],
                         ids=lambda s: s.kind + str(s.n))
def test_sl_matches_frozen_richardson_oracle(spec):
    m_ref, lam_ref = SL_RICHARDSON[spec.kind + str(spec.n)]
    got = _sl_modes(spec, 12)
    assert [m for _lam, m, _x in got] == m_ref
    lam = np.array([lam for lam, _m, _x in got])
    assert lam[0] == lam_ref[0] == 0.0
    assert np.max(np.abs(lam[1:] / lam_ref[1:] - 1.0)) <= 1e-8


def galerkin_sweep(spec, max_m, count, K=32, nodes=256):
    """(lambda, m) of every Fourier mode m <= max_m, with no search cut-off,
    from the generalized Galerkin pencil on {1, cos k th, sin k th},
    k <= K; sorted by (lambda, m)."""
    b, c = _torus_constants(spec)
    th = 2.0 * np.pi * np.arange(nodes) / nodes
    k = np.arange(1, K + 1)
    C, S = np.cos(np.outer(th, k)), np.sin(np.outer(th, k))
    F = np.hstack([np.ones((nodes, 1)), C, S])
    dF = np.hstack([np.zeros((nodes, 1)), -k * S, k * C])
    w = (spec.a + np.cos(th))[:, None]
    stiff, potential, mass = dF.T @ (w * dF), F.T @ (F / w), b * F.T @ (w * F)
    entries = []
    for m in range(max_m + 1):
        lam = scipy.linalg.eigh(stiff + (b / c) * m * m * potential, mass,
                                eigvals_only=True)
        lam[np.abs(lam) < 1e-9] = 0.0
        entries.extend((lam[j], m) for j in range(count))
    entries.sort()
    return entries[:count]


def test_sl_keeps_every_fourier_mode_below_the_cutoff():
    """On the n=21 torus the potential (b/c) m^2 / w is weak (b/c = 0.155),
    so Fourier modes m >= 11 enter the first 40 entries; a fixed cap of
    m <= 10 would drop them and get the values wrong from the 24th on."""
    spec = GeneralTorus(2.0, 21)
    ref = galerkin_sweep(spec, max_m=40, count=40)
    assert 11 <= max(m for _lam, m in ref) < 40
    truth = sturm_liouville_truth(spec, 40)
    assert [mult for _lam, mult in truth.values] \
        == [1 if m == 0 else 2 for _lam, m in ref]
    got = np.array([lam for lam, _mult in truth.values])
    want = np.array([lam for lam, _m in ref])
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("spec", [Torus(2.0), GeneralTorus(2.0, 21)],
                         ids=lambda s: s.kind + str(s.n))
def test_sl_theta_b_orthonormal_per_mode(spec):
    # the eigenfunctions of one Fourier mode are orthonormal in the mass
    # b int_0^{2 pi} w Theta_i Theta_j dth with w = a + cos th; the integral
    # is taken by the trapezoid rule on 1001 nodes off the solver's own grid,
    # exact for these trigonometric polynomials
    b, _c = _torus_constants(spec)
    th = 2.0 * np.pi * (np.arange(1001) + 0.5) / 1001
    weight = b * (spec.a + np.cos(th)) * 2.0 * np.pi / 1001
    entries = _sl_modes(spec, 40)
    for m in {m for _lam, m, _x in entries}:
        V = zoo._theta_basis(th) @ np.column_stack(
            [x for _lam, mm, x in entries if mm == m])
        gram = V.T @ (weight[:, None] * V)
        assert np.max(np.abs(gram - np.eye(V.shape[1]))) <= 1e-12


@pytest.mark.parametrize("spec", [Torus(2.0), GeneralTorus(2.0, 21)],
                         ids=lambda s: s.kind + str(s.n))
def test_sl_eigenfunctions_solve_the_ode(spec):
    # -(w Theta')' + (b/c) m^2 Theta / w = lambda b w Theta at random theta,
    # with Theta and its derivatives summed from the trigonometric
    # coefficients; and the truth's columns are Theta(th) cos/sin(m ph)
    b, c = _torus_constants(spec)
    rng = np.random.default_rng(3)
    th, ph = rng.uniform(0.0, 2.0 * np.pi, (2, 300))
    K = zoo._SL_K
    k = np.arange(1, K + 1)
    C, S = np.cos(np.outer(th, k)), np.sin(np.outer(th, k))
    w = spec.a + np.cos(th)
    entries = _sl_modes(spec, 40)
    expected = []
    for lam, m, x in entries:
        cos_k, sin_k = x[1:K + 1], x[K + 1:]
        theta = x[0] + C @ cos_k + S @ sin_k
        d_theta = C @ (k * sin_k) - S @ (k * cos_k)
        dd_theta = -C @ (k * k * cos_k) - S @ (k * k * sin_k)
        rhs = lam * b * w * theta
        resid = np.sin(th) * d_theta - w * dd_theta \
            + (b / c) * m * m * theta / w - rhs
        if lam == 0.0:
            assert np.max(np.abs(theta - x[0])) <= 1e-12
        else:
            assert np.max(np.abs(resid)) <= 1e-8 * np.max(np.abs(rhs))
        expected += [theta] if m == 0 else [theta * np.cos(m * ph),
                                            theta * np.sin(m * ph)]
    truth = sturm_liouville_truth(spec, 40)
    theta = np.column_stack([th, ph])
    cloud = PointCloud(points=embed(spec, theta), intrinsic=theta, spec=spec)
    assert np.allclose(truth.basis(cloud, len(expected)),
                       np.column_stack(expected), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("count,match", [(0, "at least 1"),
                                         (600, "resolved values")])
def test_sl_rejects_count_out_of_range(count, match):
    # the 600th value of the a=2 torus lies above the _SL_K-th value of
    # Fourier mode 0, where the basis no longer resolves that mode
    with pytest.raises(ValueError, match=match):
        sturm_liouville_truth(Torus(2.0), count)


# -- vector eigen truth ------------------------------------------------------


def test_vector_truth_leading_blocks():
    boch = vector_eigen_truth(Sphere(), "Bochner", 4)
    hodge = vector_eigen_truth(Sphere(), "Hodge", 4)
    lich = vector_eigen_truth(Sphere(), "Lich", 4)
    assert boch.values[0] == (1.0, 6)
    assert hodge.values[0] == (2.0, 6)
    assert lich.values[:4] == [(0.0, 3), (2.0, 3), (4.0, 5), (10.0, 12)]


def test_vector_truth_rotation_field_vanishes_at_pole():
    # the z-axis rotation field (y, -x, 0) is the curl field of the z
    # harmonic, third in the x,y,z ordering; it vanishes at the pole
    truth = vector_eigen_truth(Sphere(), "Bochner", 1)
    points = np.array([[0.6, 0.48, 0.64], [0.0, 0.0, 1.0]])
    cloud = PointCloud(points=points, intrinsic=None, spec=Sphere())
    rot_z = list(truth.columns(cloud))[2]
    assert np.allclose(rot_z[0], [0.48, -0.6, 0.0], atol=1e-15)
    assert np.allclose(rot_z[1], 0.0, atol=1e-15)


def test_vector_truth_fields_tangential():
    truth = vector_eigen_truth(Sphere(), "Hodge", 2)
    cloud = sample_manifold(Sphere(), 200, seed=4, mode="random_area")
    for U in list(truth.columns(cloud))[:16]:
        dot = np.sum(U * cloud.points, axis=1)
        assert np.max(np.abs(dot)) <= 1e-12


def test_truth_basis_stops_at_the_last_column():
    # four Lichnerowicz values hold 3 + 3 + 5 + 12 = 23 eigenfields
    truth = vector_eigen_truth(Sphere(), "Lich", 4)
    cloud = sample_manifold(Sphere(), 50, seed=4, mode="random_area")
    assert truth.basis(cloud, 23).shape == (150, 23)
    with pytest.raises(ValueError, match="only 23 eigenfunctions"):
        truth.basis(cloud, 24)


@pytest.mark.parametrize("spec", [Torus(2.0), FlatTorus(2)],
                         ids=lambda spec: spec.kind)
def test_truth_basis_names_missing_intrinsic_coordinates(spec):
    # the torus and flat-torus truths read the angles, which a raw cloud of
    # ambient points does not carry
    cloud = sample_manifold(spec, 20, seed=0)
    raw = PointCloud(points=cloud.points, intrinsic=None, spec=spec)
    with pytest.raises(ValueError, match="needs intrinsic coordinates"):
        scalar_eigen_truth(spec, 4).basis(raw, 4)


def test_every_vector_laplacian_has_a_sphere_truth():
    # the sphere's vector spectra are keyed by the operator names of the
    # builders, which a study config uses too
    for name in LAPLACIANS:
        truth = zoo.study_truth(Sphere(), name, 6)
        assert truth.kind == "vector"
        assert truth.values == vector_eigen_truth(Sphere(), name, 6).values
    with pytest.raises(ValueError, match="unknown vector Laplacian"):
        vector_eigen_truth(Sphere(), "Lichnerowicz", 6)


def test_vector_truth_rejects_torus():
    with pytest.raises(ValueError):
        vector_eigen_truth(Torus(2.0), "Bochner", 4)


def test_zoo_defaults_cover_every_kind():
    # one constructor per kind, and a bare entry of each kind (as the CLI
    # and config files give it) builds that constructor's default instance
    kinds = ("ellipse", "torus", "general_torus", "flat_torus", "sphere")
    assert zoo.KINDS == kinds
    assert tuple(ZOO_DEFAULTS) == kinds
    assert [ManifoldSpec.from_dict({"kind": kind}) for kind in kinds] == \
        list(ZOO_DEFAULTS.values())


@pytest.mark.parametrize("make,kw,match", [
    (Ellipse, dict(a=0.0), "a > 0"),
    (Torus, dict(a=1.0), "a > 1"),
    (GeneralTorus, dict(a=np.inf), "a > 1"),
    (GeneralTorus, dict(n=4), "odd ambient n"),
    (FlatTorus, dict(d=0), "d, m >= 1"),
    (FlatTorus, dict(m=0), "d, m >= 1"),
    # a config number is never a bool or a string, nor a float where an
    # integer is due: Ellipse(a=True) used to be the unit circle
    (Ellipse, dict(a=True), "a must be a number"),
    (Torus, dict(a="3"), "a must be a number"),
    (GeneralTorus, dict(n=21.0), "n must be an integer"),
    (FlatTorus, dict(d=True), "d must be an integer"),
    (FlatTorus, dict(m=True), "m must be an integer"),
])
def test_zoo_constructors_refuse_bad_parameters(make, kw, match):
    # FlatTorus(d=0) and an infinite a used to build a spec; a config
    # file's manifold block is refused alike
    with pytest.raises(ValueError, match=match):
        make(**kw)
    with pytest.raises(ValueError, match=match):
        ManifoldSpec.from_dict({"kind": make().kind, **kw})


def _sphere_cloud_through_a_pole():
    theta = np.array([[0.0, 0.4], [1.0, 2.0]])
    return PointCloud(points=embed(Sphere(), theta), intrinsic=theta,
                      spec=Sphere(), mode="random_intrinsic")


@pytest.mark.parametrize("build,match", [
    (lambda: ManifoldSpec("cube", d=2, n=3), "unknown manifold kind 'cube'"),
    (lambda: ManifoldSpec.from_dict({"kind": "cube"}),
     "unknown manifold kind 'cube'"),
    (lambda: ManifoldSpec("sphere", d=2, n=4), "unit 2-sphere"),
    (lambda: sturm_liouville_truth(Sphere(), 3),
     "Sturm-Liouville truth applies to torus kinds"),
    # an intrinsic-uniform density is infinite where sqrt(det g) vanishes
    (lambda: sampling_density(_sphere_cloud_through_a_pole()),
     "metric degenerate at a sample point"),
], ids=["kind", "kind-block", "sphere-n", "sturm-liouville", "pole"])
def test_zoo_refuses_what_it_cannot_build(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind + str(s.n))
def test_manifold_block_round_trips(spec):
    assert ManifoldSpec.from_dict(spec.to_dict()) == spec


def test_manifold_block_lists_the_constructor_keys():
    # the keys, and so the config echo's bytes, of every kind
    assert [spec.to_dict() for spec in ZOO_DEFAULTS.values()] == [
        {"kind": "ellipse", "d": 1, "n": 2, "a": 2.0},
        {"kind": "torus", "d": 2, "n": 3, "a": 2.0},
        {"kind": "general_torus", "d": 2, "n": 21, "a": 2.0},
        {"kind": "flat_torus", "d": 2, "n": 4, "m": 1},
        {"kind": "sphere", "d": 2, "n": 3}]


@pytest.mark.parametrize("kind,foreign,fixed", [
    ("ellipse", "m", ("d", 2)),
    ("torus", "m", ("n", 21)),
    ("general_torus", "m", ("d", 3)),
    ("flat_torus", "a", ("n", 5)),
    ("sphere", "a", ("d", 3)),
])
def test_manifold_block_refuses_what_the_kind_does_not_hold(kind, foreign,
                                                            fixed):
    # such keys used to be dropped: {"kind": "torus", "n": 21} built the
    # n = 3 torus
    key, value = fixed
    for block, bad in (({"kind": kind, foreign: 2}, f"'{foreign}': 2"),
                       ({"kind": kind, key: value}, f"'{key}': {value}")):
        with pytest.raises(ValueError, match=f"manifold keys {{{bad}}} do "
                           f"not fit {{'kind': '{kind}'"):
            ManifoldSpec.from_dict(block)

