"""Manifold zoo: samplers, projections, densities, reference spectra."""

import numpy as np
import pytest
import scipy.linalg

from manifold_rbf.zoo import (Ellipse, FlatTorus, GeneralTorus, Sphere, Torus,
                              analytic_projection, embed, intrinsic_box,
                              metric_sqrt_det, sample_manifold,
                              sampling_density, scalar_eigen_truth,
                              sturm_liouville_truth, vector_eigen_truth,
                              volume, zoo_default_manifolds)
from manifold_rbf.zoo import _sl_modes, _torus_constants

ALL_SPECS = [Ellipse(2.0), Torus(2.0), GeneralTorus(2.0, 3),
             GeneralTorus(2.0, 21), FlatTorus(2, 1), FlatTorus(3, 1),
             Sphere()]


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
    mats = analytic_projection(cloud).mats
    d = spec.d
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


# -- sampling density -----------------------------------------------------


def test_density_flat_torus_constant():
    spec = FlatTorus(2, 1)
    cloud = sample_manifold(spec, 50, seed=1)
    q = sampling_density(spec, cloud)
    assert np.allclose(q, 1.0 / volume(spec), rtol=1e-12)


def test_density_torus_ratio():
    # q ~ 1/(a + cos theta): inner-to-outer ratio (a+1)/(a-1) = 3 at a=2
    spec = Torus(2.0)
    cloud = sample_manifold(spec, 2, seed=0)
    cloud.intrinsic[0] = (np.pi, 0.0)
    cloud.intrinsic[1] = (0.0, 0.0)
    cloud.points[:] = embed(spec, cloud.intrinsic)
    q = sampling_density(spec, cloud)
    assert abs(q[0] / q[1] - 3.0) <= 1e-12


def test_density_sphere_polar_blowup():
    spec = Sphere()
    cloud = sample_manifold(spec, 2, seed=0)
    cloud.intrinsic[0] = (np.pi / 2, 0.0)
    cloud.intrinsic[1] = (np.pi / 6, 0.0)
    cloud.points[:] = embed(spec, cloud.intrinsic)
    q = sampling_density(spec, cloud)
    # q ~ 1/sin(theta); sin(pi/2)/sin(pi/6) = 2
    assert abs(q[1] / q[0] - 2.0) <= 1e-12


def test_density_integrates_to_one():
    # Monte-Carlo over intrinsic-uniform draws: E[q/q] = int q dVol = 1
    for spec in (Torus(2.0), Sphere()):
        cloud = sample_manifold(spec, 40000, seed=2)
        box = intrinsic_box(spec)
        box_vol = np.prod([hi - lo for lo, hi in box])
        sq = metric_sqrt_det(spec, cloud.intrinsic)
        q = sampling_density(spec, cloud)
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


def test_sphere_evaluators_are_harmonics():
    # spot-check: the expanded basis columns are L2-independent on a grid
    truth = scalar_eigen_truth(Sphere(), 4)
    cloud = sample_manifold(Sphere(), 400, seed=9, mode="random_area")
    F = truth.evaluate_basis(cloud.points, 16)
    gram = F.T @ F / cloud.N
    assert np.linalg.matrix_rank(gram, tol=1e-6) == 16


def test_scalar_truth_rejects_ellipse():
    with pytest.raises(ValueError):
        scalar_eigen_truth(Ellipse(2.0), 4)


# -- Sturm-Liouville truth --------------------------------------------------


def test_sl_zero_mode():
    truth = sturm_liouville_truth(GeneralTorus(2.0, 3), N_theta=256)
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
    truth = sturm_liouville_truth(GeneralTorus(2.0, 3), N_theta=2048)
    lam2 = truth.values[1][0]
    assert abs(lam2 - 0.2493624948) / 0.2493624948 <= 1e-3


def test_sl_grid_refinement_consistency():
    coarse = sturm_liouville_truth(GeneralTorus(2.0, 3), N_theta=256)
    fine = sturm_liouville_truth(GeneralTorus(2.0, 3), N_theta=512)
    a = coarse.expanded(20)
    b = fine.expanded(20)
    rel = np.abs(a - b) / np.maximum(b, 1.0)
    assert np.max(rel) <= 1e-4


def test_sl_sorted_nonnegative():
    truth = sturm_liouville_truth(GeneralTorus(2.0, 3), N_theta=256)
    vals = truth.expanded(30)
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) >= -1e-12)


def dense_sl_reference(spec, N_theta, max_m, count):
    """(lambda, m, Theta) from the full periodic matrix of every Fourier mode
    m <= max_m by dense eigh, sorted by (lambda, m)."""
    b, c = _torus_constants(spec)
    h = 2.0 * np.pi / N_theta
    th = h * np.arange(N_theta)
    w = spec.a + np.cos(th)
    w_half = spec.a + np.cos(th + 0.5 * h)
    idx = np.arange(N_theta)
    scale = 1.0 / np.sqrt(b * w)
    entries = []
    for m in range(max_m + 1):
        A = np.diag((w_half + np.roll(w_half, 1)) / h ** 2
                    + (b / c) * m * m / w)
        A[idx, (idx + 1) % N_theta] = -w_half / h ** 2
        A[(idx + 1) % N_theta, idx] = -w_half / h ** 2
        As = scale[:, None] * A * scale[None, :]
        lam, Z = scipy.linalg.eigh(0.5 * (As + As.T),
                                   subset_by_index=[0, count + 1])
        lam[np.abs(lam) < 1e-9] = 0.0
        entries.extend((lam[j], m, scale * Z[:, j]) for j in range(count + 2))
    entries.sort(key=lambda e: (e[0], e[1]))
    return entries[:count]


@pytest.mark.parametrize("spec", [Torus(2.0), GeneralTorus(2.0, 21)],
                         ids=lambda s: s.kind + str(s.n))
def test_sl_split_matches_dense_periodic_solve(spec):
    # max_m=40 is far past the last Fourier mode among the first 40 entries
    ref = dense_sl_reference(spec, 256, max_m=40, count=40)
    _th, got = _sl_modes(spec, 256, 40)
    assert max(m for _lam, m, _v in ref) < 40
    assert [m for _lam, m, _v in got] == [m for _lam, m, _v in ref]
    lam_ref = np.array([e[0] for e in ref])
    lam_got = np.array([e[0] for e in got])
    assert lam_got[0] == lam_ref[0] == 0.0
    assert np.max(np.abs(lam_got[1:] / lam_ref[1:] - 1.0)) <= 1e-10
    for (_l, _m, v_got), (_l2, _m2, v_ref) in zip(got, ref):
        sign = np.sign(v_got @ v_ref)
        assert np.max(np.abs(v_got - sign * v_ref)) \
            <= 1e-9 * np.max(np.abs(v_ref))


def test_sl_keeps_every_fourier_mode_below_the_cutoff():
    """On the n=21 torus the potential (b/c) m^2 / w is weak (b/c = 0.155),
    so Fourier modes m >= 11 enter the first 40 entries; a fixed cap of
    m <= 10 would drop them and get the values wrong from the 24th on."""
    spec = GeneralTorus(2.0, 21)
    ref = dense_sl_reference(spec, 256, max_m=40, count=40)
    assert max(m for _lam, m, _v in ref) >= 11
    truth = sturm_liouville_truth(spec, N_theta=256, count=40)
    assert [mult for _lam, mult in truth.values] \
        == [1 if m == 0 else 2 for _lam, m, _v in ref]
    got = np.array([lam for lam, _mult in truth.values])
    want = np.array([lam for lam, _m, _v in ref])
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("spec", [Torus(2.0), GeneralTorus(2.0, 21)],
                         ids=lambda s: s.kind + str(s.n))
def test_sl_theta_b_orthonormal_per_mode(spec):
    b, _c = _torus_constants(spec)
    th, entries = _sl_modes(spec, 256, 40)
    weight = b * (spec.a + np.cos(th))
    for m in {m for _lam, m, _v in entries}:
        V = np.column_stack([v for _lam, mm, v in entries if mm == m])
        gram = V.T @ (weight[:, None] * V)
        assert np.max(np.abs(gram - np.eye(V.shape[1]))) <= 1e-10


def test_sl_rejects_odd_grid():
    with pytest.raises(ValueError, match="even"):
        sturm_liouville_truth(Torus(2.0), N_theta=257)


# -- vector eigen truth ------------------------------------------------------


def test_vector_truth_leading_blocks():
    boch = vector_eigen_truth(Sphere(), "Bochner")
    hodge = vector_eigen_truth(Sphere(), "Hodge")
    lich = vector_eigen_truth(Sphere(), "Lichnerowicz")
    assert boch.values[0] == (1.0, 6)
    assert hodge.values[0] == (2.0, 6)
    assert lich.values[:4] == [(0.0, 3), (2.0, 3), (4.0, 5), (10.0, 12)]


def test_vector_truth_rotation_field_vanishes_at_pole():
    # the z-axis rotation field (y, -x, 0) is the curl field of the z
    # harmonic, third in the x,y,z ordering; it vanishes at the pole
    truth = vector_eigen_truth(Sphere(), "Bochner")
    rot_z = truth.evaluators[2]
    generic = np.array([[0.6, 0.48, 0.64]])
    assert np.allclose(rot_z(generic), [[0.48, -0.6, 0.0]], atol=1e-15)
    val = rot_z(np.array([[0.0, 0.0, 1.0]]))
    assert np.allclose(val, 0.0, atol=1e-15)


def test_vector_truth_fields_tangential():
    truth = vector_eigen_truth(Sphere(), "Hodge")
    cloud = sample_manifold(Sphere(), 200, seed=4, mode="random_area")
    for f in truth.evaluators[:16]:
        U = f(cloud.points)
        dot = np.sum(U * cloud.points, axis=1)
        assert np.max(np.abs(dot)) <= 1e-12


def test_vector_truth_rejects_torus():
    with pytest.raises(ValueError):
        vector_eigen_truth(Torus(2.0), "Bochner")


def test_zoo_defaults_cover_every_kind():
    kinds = {spec.kind for spec in zoo_default_manifolds()}
    assert kinds == {"ellipse", "torus", "general_torus", "flat_torus",
                     "sphere"}
