"""Properties that hold for any cloud: frame-gauge, rigid-motion and
permutation invariance of the SRBF spectra, frame-gauge and permutation
invariance of the NRBF vector spectra, invariance of the operators under a
far translation, symmetry and semi-definiteness of the pencils, constants
in the Laplace-Beltrami kernel, orthonormality of the lifted
eigenvectors, and the degenerate-Jacobian check."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from manifold_rbf import rbf
from manifold_rbf.rbf import KernelModel, build_system
from manifold_rbf.scalar_ops import laplace_beltrami_symmetric
from manifold_rbf.spectral import lift, solve_nonsymmetric, solve_symmetric
from manifold_rbf.tangent import ProjectionField, second_order_svd
from manifold_rbf.vector_ops import (bochner, covariant_derivative, hodge,
                                     lichnerowicz)
from manifold_rbf.zoo import (Ellipse, PointCloud, Sphere, Torus,
                              analytic_projection, ellipse_covariant_truth,
                              embed, sample_manifold, sampling_density)

N = 60
SEEDS = st.integers(0, 2 ** 32 - 1)
VECTOR_FORMS = (bochner, hodge, lichnerowicz)


def sphere_setup(seed, s):
    """A sphere cloud, its analytic frames, a kernel system and a random
    positive density, all drawn from one seed."""
    cloud = sample_manifold(Sphere(), N, seed=seed % 1000,
                            mode="random_area")
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("inverse_quadratic", s))
    q = np.random.default_rng(seed).uniform(0.5, 2.0, N)
    return cloud, proj, system, q


def srbf_spectra(system, proj, q):
    """Full spectra of the SRBF Laplace-Beltrami, Bochner, Hodge and
    Lichnerowicz pencils."""
    pairs = [laplace_beltrami_symmetric(system, proj, q)]
    pairs += [form("SRBF", system, proj, q) for form in VECTOR_FORMS]
    return [solve_symmetric(pair, len(pair.B_diag)).all_values
            for pair in pairs]


def nrbf_spectra(system, proj):
    """Nonzero spectra of the NRBF Bochner, Hodge and Lichnerowicz
    operators."""
    spectra = []
    for form in VECTOR_FORMS:
        F = form("NRBF", system, proj)
        res = solve_nonsymmetric(F, system.U, len(F),
                                 range_basis=proj.frames)
        spectra.append(res.all_values[np.abs(res.all_values)
                                      >= res.trivial_cutoff])
    return spectra


def random_orthogonal(rng, count, d):
    Q, _R = np.linalg.qr(rng.standard_normal((count, d, d)))
    return Q * np.sign(rng.standard_normal((count, 1, d)))


def assert_same_spectrum(a, b, rel=1e-10):
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= rel * np.abs(a).max()


@given(SEEDS)
def test_frame_gauge_leaves_srbf_spectra_unchanged(seed):
    # T(x_k) -> T(x_k) R_k with R_k in O(d) is another orthonormal frame
    _cloud, proj, system, q = sphere_setup(seed, 1.0)
    R = random_orthogonal(np.random.default_rng(seed + 1), N, 2)
    turned = ProjectionField(frames=proj.frames @ R, source="analytic",
                             K_used=0)
    for a, b in zip(srbf_spectra(system, proj, q),
                    srbf_spectra(system, turned, q)):
        assert_same_spectrum(a, b)


def assert_same_values(a, b, rel, scale=None):
    # complex spectra, whose order near-ties may swap: every value of each
    # lies within rel of scale (the largest |value| of a by default) from
    # one of the other
    assert a.shape == b.shape
    gap = np.abs(a[:, None] - b[None, :])
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= \
        rel * (np.abs(a).max() if scale is None else scale)


@given(SEEDS)
def test_frame_gauge_leaves_nrbf_spectra_unchanged(seed):
    # per-point rotations and reflections of the frames: over cloud seeds
    # 0-999 the values moved by at most 1.4e-11 of the largest (measured)
    _cloud, proj, system, _q = sphere_setup(seed, 1.0)
    R = random_orthogonal(np.random.default_rng(seed + 1), N, 2)
    turned = ProjectionField(frames=proj.frames @ R, source="analytic",
                             K_used=0)
    for a, b in zip(nrbf_spectra(system, proj),
                    nrbf_spectra(system, turned)):
        assert_same_values(a, b, 1e-10)


@given(SEEDS)
def test_permutation_leaves_nrbf_spectra_unchanged(seed):
    # the permuted Phi's eigenvectors round differently, and the
    # non-normal operators amplify that: over cloud seeds 0-999 the values
    # moved by at most 4.1e-9 of the largest (measured)
    cloud, proj, system, _q = sphere_setup(seed, 1.0)
    perm = np.random.default_rng(seed + 2).permutation(N)
    moved = PointCloud(points=cloud.points[perm], intrinsic=None, spec=None)
    moved_proj = ProjectionField(frames=proj.frames[perm], source="analytic",
                                 K_used=0)
    for a, b in zip(nrbf_spectra(system, proj),
                    nrbf_spectra(build_system(moved, system.model),
                                 moved_proj)):
        assert_same_values(a, b, 2e-8)


@given(SEEDS)
def test_rigid_motion_and_permutation_leave_lb_spectrum_unchanged(seed):
    cloud, proj, system, q = sphere_setup(seed, 1.0)
    rng = np.random.default_rng(seed + 2)
    Q = random_orthogonal(rng, 1, 3)[0]
    shift = rng.uniform(-5.0, 5.0, 3)
    perm = rng.permutation(N)
    moved = PointCloud(points=cloud.points[perm] @ Q.T + shift,
                       intrinsic=None, spec=None)
    moved_proj = ProjectionField(frames=Q @ proj.frames[perm],
                                 source="analytic", K_used=0)
    moved_system = build_system(moved, system.model)
    base = solve_symmetric(laplace_beltrami_symmetric(system, proj, q),
                           N).all_values
    other = solve_symmetric(laplace_beltrami_symmetric(
        moved_system, moved_proj, q[perm]), N).all_values
    # Rounding the moved cloud perturbs Phi by about eps ||Phi||, which
    # moves the modes tied to its smallest retained eigenvalue by about
    # eps kappa(Phi) of themselves: over seeds 0-399 the top one or two
    # modes of 86 draws miss 1e-10 of the largest value (by up to 7.8e-9),
    # and every miss stays within 2.2 eps kappa(Phi) of its mode. The
    # leading half, the modes a run compares, agree to 8.4e-15.
    kappa = system.sigma.max() / system.sigma.min()
    gap = np.abs(base - other)
    scale = np.abs(base).max()
    assert np.all(gap <= 1e-10 * scale +
                  8 * np.finfo(float).eps * kappa * np.abs(base))
    assert gap[:N // 2].max() <= 1e-12 * scale


@pytest.mark.parametrize("frames", ["Analytic", "SecondOrder"])
@pytest.mark.parametrize("spec,size", [(Sphere(), 300), (Torus(2.0), 400)],
                         ids=["sphere", "torus"])
def test_permutation_leaves_the_srbf_lb_spectrum_unchanged(spec, size,
                                                           frames,
                                                           monkeypatch):
    # the LB, Hodge and Lich pencils are summed over row blocks (here of
    # 64 rows) in point order, so a permutation moves their block
    # boundaries and every sum's order. As under a rigid motion, the modes
    # tied to Phi's smallest retained eigenvalue move by eps kappa(Phi) of
    # themselves: over cloud seeds 0-19 the top few LB values miss 1e-10 of
    # the largest value (by up to 1.3e-8, as much with whole-cloud blocks),
    # every miss within 0.71 eps kappa(Phi) of its mode, while the leading
    # half of the nontrivial modes agree to 4e-11; over seeds 0-9 the
    # Hodge and Lich misses stay within 0.34 eps kappa(Phi) and their
    # leading halves agree to 3.6e-11
    monkeypatch.setattr(rbf, "ROW_BLOCK_BYTES", 8 * 64 * size)
    cloud = sample_manifold(spec, size, seed=4, mode="random_area")
    perm = np.random.default_rng(4).permutation(size)
    moved = PointCloud(points=cloud.points[perm],
                       intrinsic=cloud.intrinsic[perm], spec=spec,
                       mode=cloud.mode)
    q = sampling_density(cloud)
    model = KernelModel("gaussian", 1.0)
    spectra = []
    for c, qc in ((cloud, q), (moved, q[perm])):
        proj = analytic_projection(c) if frames == "Analytic" else \
            second_order_svd(c, None)
        system = build_system(c, model)
        pairs = [laplace_beltrami_symmetric(system, proj, qc)]
        pairs += [form("SRBF", system, proj, qc)
                  for form in (hodge, lichnerowicz)]
        spectra.append([solve_symmetric(pair, 1).all_values
                        for pair in pairs])
    kappa = system.sigma.max() / system.sigma.min()
    for base, other in zip(*spectra):
        gap = np.abs(base - other)
        scale = np.abs(base).max()
        assert np.all(gap <= 1e-10 * scale +
                      8 * np.finfo(float).eps * kappa * np.abs(base))
        nontrivial = np.flatnonzero(np.abs(base) >= 1e-6 * scale)
        assert gap[nontrivial[:len(nontrivial) // 2]].max() <= 1e-10 * scale


def test_a_far_translation_leaves_the_operators_unchanged():
    # the operators depend on differences x_j - x_k alone; a cloud moved by
    # 1e6 keeps only its rounding, about 2e-10 of the sphere's radius. The
    # leading 15 nontrivial values moved by 5.8e-13 (SRBF LB) and 1.8e-12
    # (NRBF Hodge) of the largest, the covariant derivative on the ellipse
    # by 3.6e-10 of its largest entry; 4.8e-9, 3.1e-8 and 6.4e-9 while the
    # brackets were formed on raw coordinates (measured)
    cloud = sample_manifold(Sphere(), 400, seed=4, mode="random_area")
    proj = analytic_projection(cloud)
    model = KernelModel("inverse_quadratic", 0.5)

    def leading(points):
        system = build_system(PointCloud(points=points, intrinsic=None,
                                         spec=None), model)
        out = []
        for res in (solve_symmetric(laplace_beltrami_symmetric(
                        system, proj, np.ones(len(points))), 1),
                    solve_nonsymmetric(hodge("NRBF", system, proj), system.U,
                                       1, range_basis=proj.frames)):
            lam = res.all_values
            out.append((lam[np.abs(lam) >= res.trivial_cutoff][:15],
                        np.abs(lam).max()))
        return out

    for (a, scale), (b, _) in zip(leading(cloud.points),
                                  leading(cloud.points + 1e6)):
        assert_same_values(a, b, 1e-9, scale)
    ellipse = sample_manifold(Ellipse(2.0), 200, seed=4, mode="random_area")
    U, _truth = ellipse_covariant_truth(ellipse)
    moved = PointCloud(points=ellipse.points + 1e6, intrinsic=None,
                       spec=None)
    a, b = (covariant_derivative(build_system(c, model),
                                 analytic_projection(ellipse), U, U)
            for c in (ellipse, moved))
    assert np.abs(a - b).max() <= 2e-9 * np.abs(a).max()


@given(SEEDS)
def test_lb_pencil_symmetric_psd_with_constants_in_kernel(seed):
    _cloud, proj, system, q = sphere_setup(seed, 0.5)
    pair = laplace_beltrami_symmetric(system, proj, q)
    assert np.array_equal(pair.A, pair.A.T)
    lam = np.linalg.eigvalsh(pair.A)
    assert lam.min() >= -1e-10 * lam.max()
    # the pencil is R A R^T: the constant's Rayleigh quotient goes through R
    one = pair.factor.T @ np.ones(N)
    rayleigh = one @ pair.A @ one / np.sum(pair.B_diag)
    first = solve_symmetric(pair, N).nontrivial_values()[0]
    assert rayleigh <= 1e-6 * first


@given(SEEDS)
def test_vector_pencils_psd_with_orthonormal_lifted_vectors(seed):
    _cloud, proj, system, q = sphere_setup(seed, 0.5)
    qt = np.tile(1.0 / q, 3)
    for form in VECTOR_FORMS:
        pair = form("SRBF", system, proj, q)
        assert np.array_equal(pair.A, pair.A.T)
        res = solve_symmetric(pair, 2 * N)
        assert res.all_values.min() >= -1e-10 * res.all_values.max()
        assert len(res.all_values) == 2 * N
        # every computed mode carries a vector on the 2 N frame
        # coordinates; structural zeros do not
        assert res.vectors.shape == (2 * N, res.solve_dim)
        V = lift(pair.range_basis, res.vectors)
        gram = V.T @ (qt[:, None] * V)
        assert np.abs(gram - np.eye(res.solve_dim)).max() <= 1e-8


@given(st.floats(0.0, 2.0 * math.pi), st.integers(0, 2))
def test_analytic_projection_rejects_exact_sphere_pole(phi, where):
    cloud = sample_manifold(Sphere(), 3, seed=0)
    cloud.intrinsic[where] = (0.0, phi)
    cloud.points[:] = embed(Sphere(), cloud.intrinsic)
    with pytest.raises(ValueError, match="degenerate embedding Jacobian"):
        analytic_projection(cloud)
