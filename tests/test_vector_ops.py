"""Block vector-field operators: H_i, S_i, the three Laplacians, covariant
derivative. The ellipse cases check against closed-form 1D tensor calculus:
for U = sin(theta) d_theta on x(theta) = (cos t, a sin t) the covariant
gradient coefficient is u1_cov = cos t + sin t g'/(2g) with
g = sin^2 t + a^2 cos^2 t."""

import numpy as np
import pytest

from manifold_rbf.rbf import KernelModel, build_system
from manifold_rbf.scalar_ops import ambient_gradient, build_grad_matrices
from manifold_rbf.spectral import solve_symmetric
from manifold_rbf.tangent import ProjectionField, second_order_svd
from manifold_rbf.vector_ops import (LAPLACIANS, VectorField, bochner,
                                     build_vector_ops, covariant_derivative,
                                     h_matrix, hodge, lichnerowicz,
                                     potimes_matrix, s_matrix,
                                     tangent_range_basis)
from manifold_rbf.zoo import (Ellipse, Sphere, Torus, analytic_projection,
                              sample_manifold, sampling_density)


def ellipse_setup(N=400, a=2.0, seed=0, s=1.5):
    cloud = sample_manifold(Ellipse(a), N, seed=seed)
    theta = cloud.intrinsic[:, 0]
    xp = np.column_stack([-np.sin(theta), a * np.cos(theta)])
    g = np.sin(theta) ** 2 + a ** 2 * np.cos(theta) ** 2
    gp = np.sin(2 * theta) * (1 - a ** 2)
    tau = xp / np.sqrt(g)[:, None]
    u1 = np.sin(theta)
    cov11 = np.cos(theta) + u1 * gp / (2 * g)
    U = VectorField.from_samples(u1[:, None] * xp)
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("gaussian", s))
    vops = build_vector_ops(build_grad_matrices(system, proj), proj)
    return dict(cloud=cloud, theta=theta, xp=xp, g=g, gp=gp, tau=tau,
                u1=u1, cov11=cov11, U=U, proj=proj, system=system, vops=vops)


@pytest.fixture(scope="module")
def ellipse():
    return ellipse_setup()


def plane_setup(N=150, seed=3):
    rng = np.random.default_rng(seed)
    t1 = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    t2 = np.array([0.0, 1.0, 0.0])
    coeff = rng.uniform(-1.0, 1.0, size=(N, 2))
    pts = coeff[:, :1] * t1 + coeff[:, 1:] * t2
    from manifold_rbf.zoo import PointCloud
    cloud = PointCloud(points=pts, intrinsic=None, spec=None)
    T = np.column_stack([t1, t2])
    proj = ProjectionField(frames=np.broadcast_to(T, (N, 3, 2)).copy(),
                           source="analytic", K_used=0)
    system = build_system(cloud, KernelModel("gaussian", 0.02, pinv_tol=1e-12))
    vops = build_vector_ops(build_grad_matrices(system, proj), proj)
    return cloud, proj, system, vops, (t1, t2)


# -- field container ----------------------------------------------------------


def test_vector_field_roundtrip():
    samples = np.arange(12.0).reshape(4, 3)
    U = VectorField.from_samples(samples)
    assert U.vec.shape == (12,)
    assert np.array_equal(U.vec[:4], samples[:, 0])
    assert np.array_equal(U.as_samples(), samples)
    assert np.array_equal(U.components()[2], samples[:, 2])


def test_build_vector_ops_mismatch(ellipse):
    short = ProjectionField(frames=ellipse["proj"].frames[:100],
                            source="analytic", K_used=0)
    with pytest.raises(ValueError):
        build_vector_ops(ellipse["vops"].ops, short)


# -- block projection ---------------------------------------------------------


def test_potimes_symmetric_idempotent():
    cloud = sample_manifold(Torus(2.0), 300, seed=1)
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("inverse_quadratic", 0.5))
    vops = build_vector_ops(build_grad_matrices(system, proj), proj)
    Pot = potimes_matrix(vops)
    assert np.array_equal(Pot, Pot.T)
    assert np.abs(Pot @ Pot - Pot).max() <= 1e-10


def test_potimes_annihilates_normal_field():
    cloud = sample_manifold(Sphere(), 300, seed=0, mode="random_area")
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("gaussian", 1.0))
    vops = build_vector_ops(build_grad_matrices(system, proj), proj)
    U = VectorField.from_samples(cloud.points)   # outward normal on S^2
    out = potimes_matrix(vops) @ U.vec
    assert np.linalg.norm(out) <= 1e-8 * np.linalg.norm(U.vec)


def test_h_output_stays_tangential(ellipse):
    vops = ellipse["vops"]
    Pot = potimes_matrix(vops)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(2 * vops.N)
    for i in range(2):
        w = h_matrix(vops, i) @ v
        assert np.linalg.norm(w - Pot @ w) <= 1e-10 * np.linalg.norm(v)


def test_tangent_range_basis_orthonormal(ellipse):
    W = tangent_range_basis(ellipse["proj"]).toarray()
    assert W.shape == (800, 400)
    assert np.abs(W.T @ W - np.eye(400)).max() <= 1e-12
    assert np.abs(W @ W.T - potimes_matrix(ellipse["vops"])).max() <= 1e-15


# -- gradient of a vector field -----------------------------------------------


def test_plane_constant_field_annihilated():
    _, _, _, vops, (t1, t2) = plane_setup()
    U = VectorField.from_samples(np.tile(0.4 * t1 - 0.9 * t2, (vops.N, 1)))
    for i in range(3):
        out = h_matrix(vops, i) @ U.vec
        assert np.abs(out).max() <= 1e-6


def test_ellipse_grad_tensor(ellipse):
    # (H_i U)^j should match the analytic tensor u1_cov * tau_j tau_i
    vops, U = ellipse["vops"], ellipse["U"]
    for i in range(2):
        got = (h_matrix(vops, i) @ U.vec).reshape(2, -1)
        want = ellipse["cov11"][None, :] * ellipse["tau"].T \
            * ellipse["tau"][:, i][None, :]
        assert np.abs(got - want).max() <= 1e-2


# -- Laplacians applied to fields ----------------------------------------------


def analytic_bochner(e):
    # -(1/g) d/dtheta of the covariant gradient coefficient, times d_theta
    a = 2.0
    t, g, gp = e["theta"], e["g"], e["gp"]
    s, c = np.sin(t), np.cos(t)
    gpp = 2 * np.cos(2 * t) * (1 - a ** 2)
    dcov = -s + c * gp / (2 * g) + s * gpp / (2 * g) - s * gp ** 2 / (2 * g ** 2)
    return (-dcov / g)[:, None] * e["xp"]


def test_ellipse_bochner_field_error(ellipse):
    B = bochner("nonsymmetric", ellipse["vops"])
    got = (B @ ellipse["U"].vec).reshape(2, -1).T
    err = np.abs(got - analytic_bochner(ellipse))
    assert err[:, 0].max() <= 0.05


def test_ellipse_lichnerowicz_field_error(ellipse):
    L = lichnerowicz("nonsymmetric", ellipse["vops"])
    got = (L @ ellipse["U"].vec).reshape(2, -1).T
    err = np.abs(got - 2 * analytic_bochner(ellipse))
    assert err[:, 0].max() <= 0.1


def test_one_dim_identities():
    # wide kernel regime where the discrete grad/div compositions agree
    e = ellipse_setup(N=800, s=4.5)
    B = bochner("nonsymmetric", e["vops"])
    H = hodge("nonsymmetric", e["vops"])
    L = lichnerowicz("nonsymmetric", e["vops"])
    BU = B @ e["U"].vec
    scale = np.linalg.norm(BU)
    assert np.linalg.norm(H @ e["U"].vec - BU) <= 1e-6 * scale
    assert np.linalg.norm(L @ e["U"].vec - 2 * BU) <= 1e-4 * scale


def test_rejects_unknown_kind(ellipse):
    for op in (bochner, hodge, lichnerowicz):
        with pytest.raises(ValueError):
            op("weak", ellipse["vops"])


# -- symmetric variants ---------------------------------------------------------


@pytest.fixture(scope="module")
def ellipse_symmetric(ellipse):
    q = sampling_density(Ellipse(2.0), ellipse["cloud"])
    pairs = {"bochner": bochner("symmetric", ellipse["vops"], q),
             "hodge": hodge("symmetric", ellipse["vops"], q),
             "lichnerowicz": lichnerowicz("symmetric", ellipse["vops"], q)}
    return q, pairs


def test_symmetric_pairs_structure(ellipse_symmetric):
    q, pairs = ellipse_symmetric
    for pair in pairs.values():
        # ellipse: d = 1, so the pencils live on N frame coordinates
        assert pair.A.shape == (400, 400)
        assert np.array_equal(pair.A, pair.A.T)
        assert pair.B is None and np.array_equal(pair.B_diag, 1.0 / q)
        assert pair.range_basis.shape == (800, 400)


def test_symmetric_spectra_real_nonnegative(ellipse_symmetric):
    _, pairs = ellipse_symmetric
    for pair in pairs.values():
        res = solve_symmetric(pair, k=50)
        assert np.isrealobj(res.values)
        scale = np.abs(res.all_values).max()
        assert res.values.min() >= -1e-8 * scale


def test_symmetric_eigenvectors_tangential(ellipse_symmetric):
    _, pairs = ellipse_symmetric
    pair = pairs["bochner"]
    res = solve_symmetric(pair, k=30)
    assert res.vectors.shape == (800, 30)
    W = pair.range_basis
    for j in range(30):
        if res.trivial[j]:
            continue
        v = res.vectors[:, j]
        assert np.linalg.norm(v - W @ (W.T @ v)) <= 1e-6 * np.linalg.norm(v)


def test_symmetric_b_orthogonality(ellipse_symmetric):
    # the lifted eigenvectors are orthonormal in the ambient Qt^{-1} product
    q, pairs = ellipse_symmetric
    pair = pairs["lichnerowicz"]
    res = solve_symmetric(pair, k=25)
    V = res.vectors
    gram = V.T @ (np.tile(1.0 / q, 2)[:, None] * V)
    assert np.abs(gram - np.eye(25)).max() <= 1e-8


def test_symmetric_half_factor(ellipse):
    # the quadratic forms carry the printed 1/2 on the (H -+ S) terms; the
    # frame-basis pencil is the ambient one restricted to the range basis
    vops = ellipse["vops"]
    q = sampling_density(Ellipse(2.0), ellipse["cloud"])
    qt = np.tile(1.0 / q, 2)
    Pot = potimes_matrix(vops)
    manual = np.zeros_like(Pot)
    for i in range(2):
        M = (h_matrix(vops, i) + s_matrix(vops, i)) @ Pot
        manual += 0.5 * (M.T @ (qt[:, None] * M))
    W = tangent_range_basis(vops.proj).toarray()
    manual = W.T @ manual @ W
    pair = lichnerowicz("symmetric", vops, q)
    assert np.abs(pair.A - manual).max() <= 1e-12 * np.abs(manual).max()


def ambient_pencil(vops, q, name):
    # the nN ambient form: sum_i coeff |(H_i + swap S_i) Pot|^2 weighted by
    # Qt^{-1}, plus Pot [G_j^T Q^{-1} G_k] Pot for Hodge
    swap, coeff, div = LAPLACIANS[name]
    n, N = vops.n, vops.N
    qinv = 1.0 / q
    qt = np.tile(qinv, n)
    Pot = potimes_matrix(vops)
    A = np.zeros_like(Pot)
    for i in range(n):
        M = (h_matrix(vops, i) + swap * s_matrix(vops, i)) @ Pot
        A += coeff * (M.T @ (qt[:, None] * M))
    if div:
        G = [ambient_gradient(vops.ops, j) for j in range(n)]
        K = np.block([[G[j].T @ (qinv[:, None] * G[k]) for k in range(n)]
                      for j in range(n)])
        A += Pot @ K @ Pot
    return A


@pytest.mark.parametrize("name", sorted(LAPLACIANS))
def test_frame_pencil_matches_ambient_reference(name):
    # the dN frame-basis pencil is W^T A W of the nN ambient form
    cloud = sample_manifold(Sphere(), 150, seed=1, mode="random_area")
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("inverse_quadratic", 0.5))
    vops = build_vector_ops(build_grad_matrices(system, proj), proj)
    q = np.random.default_rng(0).uniform(0.5, 2.0, cloud.N)
    W = tangent_range_basis(proj).toarray()
    want = W.T @ ambient_pencil(vops, q, name) @ W
    pair = {"bochner": bochner, "hodge": hodge,
            "lichnerowicz": lichnerowicz}[name]("symmetric", vops, q)
    assert np.linalg.norm(pair.A - want) <= 1e-12 * np.linalg.norm(want)
    assert np.array_equal(pair.B_diag, np.tile(1.0 / q, 2))


@pytest.mark.parametrize("op", [bochner, hodge, lichnerowicz])
def test_symmetric_vector_forms_reject_bad_density(ellipse, op):
    q = sampling_density(Ellipse(2.0), ellipse["cloud"])
    nan = q.copy()
    nan[3] = np.nan
    zero = q.copy()
    zero[3] = 0.0
    for bad in (None, q[:-1], nan, zero):
        with pytest.raises(ValueError, match="density"):
            op("symmetric", ellipse["vops"], bad)


# -- covariant derivative -------------------------------------------------------


def test_plane_covariant_constant_field():
    _, _, system, vops, (t1, t2) = plane_setup()
    Y = VectorField.from_samples(np.tile(t1 + 0.5 * t2, (vops.N, 1)))
    U = VectorField.from_samples(np.tile(0.3 * t1, (vops.N, 1)))
    out = covariant_derivative(vops, system, U, Y)
    assert np.abs(out.vec).max() <= 1e-6


def test_ellipse_covariant_analytic_projection(ellipse):
    # nabla_U U has intrinsic coefficient u1 * u1_cov
    want = (ellipse["u1"] * ellipse["cov11"])[:, None] * ellipse["xp"]
    got = covariant_derivative(ellipse["vops"], ellipse["system"],
                               ellipse["U"], ellipse["U"]).as_samples()
    assert np.abs(got - want)[:, 0].max() <= 1e-4


def test_ellipse_covariant_estimated_projection(ellipse):
    want = (ellipse["u1"] * ellipse["cov11"])[:, None] * ellipse["xp"]
    phat = second_order_svd(ellipse["cloud"], K=6, d=1)
    vops = build_vector_ops(
        build_grad_matrices(ellipse["system"], phat), phat)
    got = covariant_derivative(vops, ellipse["system"],
                               ellipse["U"], ellipse["U"]).as_samples()
    assert np.abs(got - want)[:, 0].max() <= 1e-2
