"""Kernel evaluation, interpolation system assembly, pseudo-inverse solves."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from manifold_rbf import rbf
from manifold_rbf.rbf import (InterpolationSystem, KernelModel, build_system,
                              derivative_matrices, kernel_deriv_over_r,
                              kernel_eval)
from manifold_rbf.zoo import Ellipse, PointCloud, Sphere, sample_manifold

FAMILIES = ["gaussian", "inverse_quadratic", "matern"]


def cloud_from(points):
    return PointCloud(points=np.asarray(points, dtype=float), intrinsic=None,
                      spec=None)


def phi_prime(model, r):
    """phi_s'(r), as the operators use it: r times phi_s'(r) / r."""
    return r * kernel_deriv_over_r(model, r)


def kernel_matrix(system, query=None):
    """Phi(q, x)_{jk} = phi_s(|q_j - x_k|); the nodes themselves by default."""
    q = system.points if query is None else np.atleast_2d(query)
    return kernel_eval(system.model, cdist(q, system.points))


def factored_pinv(system, rhs):
    """The truncated pseudo-inverse U diag(1/w) U^T of Phi applied to rhs."""
    return (system.U / system.w) @ (system.U.T @ rhs)


# -- kernel formulas ---------------------------------------------------------


def test_gaussian_at_zero():
    for s in (0.5, 1.0, 3.0):
        assert kernel_eval(KernelModel("gaussian", s), 0.0) == 1.0


def test_iq_half():
    assert kernel_eval(KernelModel("inverse_quadratic", 1.0), 1.0) == 0.5


@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_eval_is_the_textbook_formula(family):
    # evaluated in place, in the textbook's order of operations: the same
    # bits, and the distances passed in are left as they were
    s = 0.7
    x = np.random.default_rng(2).standard_normal((40, 3))
    r = cdist(x, x)
    before = r.copy()
    textbook = {"gaussian": np.exp(-(s * r) ** 2),
                "inverse_quadratic": 1.0 / (1.0 + (s * r) ** 2),
                "matern": (1.0 + s * r) * np.exp(-s * r)}[family]
    assert np.array_equal(kernel_eval(KernelModel(family, s), r), textbook)
    assert np.array_equal(r, before)


def test_gaussian_deriv_formula():
    m = KernelModel("gaussian", 1.5)
    r = np.linspace(0.0, 2.0, 9)
    expected = -2 * 1.5 ** 2 * r * np.exp(-(1.5 * r) ** 2)
    assert np.allclose(phi_prime(m, r), expected, atol=1e-15)


def test_iq_deriv_formula():
    m = KernelModel("inverse_quadratic", 0.7)
    r = np.linspace(0.0, 2.0, 9)
    expected = -2 * 0.7 ** 2 * r / (1 + (0.7 * r) ** 2) ** 2
    assert np.allclose(phi_prime(m, r), expected, atol=1e-15)


@pytest.mark.parametrize("family", FAMILIES)
def test_deriv_matches_finite_difference(family):
    m = KernelModel(family, 1.5)
    h = 1e-6
    for r in np.arange(0.1, 2.01, 0.1):
        fd = (kernel_eval(m, r + h) - kernel_eval(m, r - h)) / (2 * h)
        assert abs(phi_prime(m, r) - fd) <= 1e-7


def test_deriv_fd_spot_check():
    m = KernelModel("gaussian", 1.5)
    h = 1e-6
    fd = (kernel_eval(m, 0.3 + h) - kernel_eval(m, 0.3 - h)) / (2 * h)
    assert abs(phi_prime(m, 0.3) - fd) <= 1e-8


@pytest.mark.parametrize("family", FAMILIES)
def test_deriv_over_r_limit(family):
    # phi'(r)/r extends continuously to r=0; the matrices rely on the limit
    m = KernelModel(family, 2.0)
    at_zero = kernel_deriv_over_r(m, np.array([0.0]))[0]
    near_zero = phi_prime(m, 1e-8) / 1e-8
    assert np.isfinite(at_zero)
    assert abs(at_zero - near_zero) <= 1e-6 * abs(at_zero)


def test_kernel_model_validation():
    with pytest.raises(ValueError):
        KernelModel("cubic", 1.0)
    with pytest.raises(ValueError):
        KernelModel("gaussian", -1.0)
    with pytest.raises(ValueError):
        KernelModel("gaussian", 1.0, pinv_tol=1e-1)
    with pytest.raises(ValueError):
        KernelModel("gaussian", 1.0, pinv_tol=1e-13)
    # True used to run as s = 1; a config number is never a bool or a string
    for kw, key in ((dict(s=True), "s"), (dict(s="0.5"), "s"),
                    (dict(s=1.0, pinv_tol="1e-8"), "pinv_tol")):
        with pytest.raises(ValueError, match=f"kernel {key} must be a number"):
            KernelModel("gaussian", **kw)
    # an integer reads as a float, from an API call as from a config file
    model = KernelModel("gaussian", 2)
    assert model == KernelModel.from_dict({"family": "gaussian", "s": 2})
    assert isinstance(model.s, float) and model.to_dict()["s"] == 2.0


# -- system assembly ---------------------------------------------------------


def test_duplicate_points_rank_one():
    cloud = cloud_from([[0.0, 0.0], [0.0, 0.0]])
    system = build_system(cloud, KernelModel("gaussian", 1.0))
    assert np.allclose(kernel_matrix(system), np.ones((2, 2)))
    assert system.rank_L == 1


def test_three_points_spd():
    cloud = cloud_from([[0.0, 0.0], [1.0, 0.0], [0.0, 1.5]])
    system = build_system(cloud, KernelModel("gaussian", 1.0))
    w = np.linalg.eigvalsh(kernel_matrix(system))
    assert w.min() > 0
    assert system.rank_L == 3


def test_diagonal_is_phi_zero():
    cloud = cloud_from(np.random.default_rng(0).normal(size=(6, 3)))
    for family in FAMILIES:
        m = KernelModel(family, 1.3)
        system = build_system(cloud, m)
        assert np.allclose(np.diag(kernel_matrix(system)),
                           kernel_eval(m, 0.0))


def test_phi_exactly_symmetric():
    # build_system factors Phi as assembled; it equals its symmetric part
    # bit for bit, so the factor is the one of 0.5 (Phi + Phi^T)
    cloud = sample_manifold(Ellipse(2.0), 150, seed=3)
    model = KernelModel("inverse_quadratic", 1.0)
    system = build_system(cloud, model)
    Phi = kernel_matrix(system)
    assert np.array_equal(Phi, Phi.T)
    w, V = np.linalg.eigh(0.5 * (Phi + Phi.T))
    keep = np.abs(w) >= model.pinv_tol * np.abs(w).max()
    order = np.argsort(np.abs(w[keep]))[::-1]
    assert system.rank_L == keep.sum()
    assert np.array_equal(system.w, w[keep][order])
    assert np.array_equal(system.U, V[:, keep][:, order])


def test_system_keeps_no_n_by_n_matrix():
    # Phi lives only while it is factored; the system keeps the N x rank_L
    # factor, which is smaller than N x N once the cutoff truncates
    cloud = sample_manifold(Ellipse(2.0), 120, seed=5)
    system = build_system(cloud, KernelModel("gaussian", 2.0))
    N = system.N
    assert system.rank_L < N
    sizes = {name: np.size(value) for name, value in vars(system).items()}
    assert max(sizes.values()) < N * N, sizes


def test_single_point_rejected():
    with pytest.raises(ValueError):
        build_system(cloud_from([[0.0, 0.0]]), KernelModel("gaussian", 1.0))


def test_rank_monotone_in_pinv_tol():
    cloud = sample_manifold(Ellipse(2.0), 200, seed=1)
    ranks = []
    for tol in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
        system = build_system(cloud, KernelModel("gaussian", 2.0,
                                                 pinv_tol=tol))
        ranks.append(system.rank_L)
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))


# -- pseudo-inverse solves ----------------------------------------------------


def test_pinv_zero_rhs():
    cloud = cloud_from(np.random.default_rng(1).normal(size=(5, 2)))
    system = build_system(cloud, KernelModel("gaussian", 1.0))
    assert np.allclose(factored_pinv(system, np.zeros(5)), 0.0)


def test_pinv_full_rank_solve():
    cloud = cloud_from([[0.0, 0.0], [1.0, 0.2], [0.3, 1.1]])
    system = build_system(cloud, KernelModel("gaussian", 1.0))
    f = np.array([1.0, -2.0, 0.5])
    c = factored_pinv(system, f)
    Phi = kernel_matrix(system)
    assert np.max(np.abs(Phi @ c - f)) <= 1e-10
    direct = np.linalg.solve(Phi, f)
    assert np.allclose(c, direct, atol=1e-9)


def test_pinv_reprojection_identity():
    cloud = sample_manifold(Ellipse(2.0), 120, seed=5)
    system = build_system(cloud, KernelModel("gaussian", 2.0))
    Phi = kernel_matrix(system)
    lhs = Phi @ factored_pinv(system, Phi)
    assert np.max(np.abs(lhs - Phi)) <= 1e-8 * np.abs(Phi).max()


def test_pinv_rank_deficient_least_squares():
    # duplicated point: rank-1 Phi; pick rhs in the range and check the
    # least-squares solution reproduces it with residual orthogonal to range
    cloud = cloud_from([[0.0, 0.0], [0.0, 0.0]])
    system = build_system(cloud, KernelModel("gaussian", 1.0))
    rhs = np.array([2.0, 2.0])           # in range(Phi) = span(1,1)
    Phi = kernel_matrix(system)
    c = factored_pinv(system, rhs)
    resid = Phi @ c - rhs
    assert np.max(np.abs(resid)) <= 1e-12
    rhs2 = np.array([1.0, -1.0])          # orthogonal to the range
    c2 = factored_pinv(system, rhs2)
    resid2 = Phi @ c2 - rhs2
    assert abs(resid2 @ np.ones(2)) <= 1e-12


def test_pinv_matrix_shape_and_symmetry():
    # Phi^+ is only ever applied in factored form; applied to I it is dense
    cloud = sample_manifold(Ellipse(2.0), 60, seed=2)
    system = build_system(cloud, KernelModel("matern", 1.0))
    Pplus = factored_pinv(system, np.eye(60))
    assert Pplus.shape == (60, 60)
    assert np.max(np.abs(Pplus - Pplus.T)) <= 1e-12 * np.abs(Pplus).max()


# -- interpolation ------------------------------------------------------------


def test_basis_coefficient_at_node():
    cloud = cloud_from(np.random.default_rng(2).normal(size=(7, 2)))
    m = KernelModel("inverse_quadratic", 1.2)
    system = build_system(cloud, m)
    e3 = np.zeros(7)
    e3[3] = 1.0
    val = kernel_matrix(system, cloud.points[3]) @ e3
    assert abs(val[0] - kernel_eval(m, 0.0)) <= 1e-14


def test_interpolation_condition_full_rank():
    cloud = sample_manifold(Ellipse(2.0), 80, seed=4)
    system = build_system(cloud, KernelModel("matern", 3.0))
    assert system.rank_L == 80    # precondition of the exactness claim
    rng = np.random.default_rng(6)
    f = rng.normal(size=80)
    c = factored_pinv(system, f)
    vals = np.array([kernel_matrix(system, x)[0] @ c for x in cloud.points])
    assert np.max(np.abs(vals - f)) <= 1e-8 * np.abs(f).max()


def test_interpolate_constant_off_node():
    # constant function reproduced between nodes on a dense circle
    theta = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    cloud = cloud_from(np.column_stack([np.cos(theta), np.sin(theta)]))
    system = build_system(cloud, KernelModel("inverse_quadratic", 0.5))
    c = factored_pinv(system, np.ones(200))
    rng = np.random.default_rng(8)
    for th in rng.uniform(0, 2 * np.pi, size=50):
        q = np.array([np.cos(th), np.sin(th)])
        assert abs(kernel_matrix(system, q)[0] @ c - 1.0) <= 1e-3


# -- derivative factors, streamed by row blocks --------------------------------


def dense_derivative_matrices(system, directions):
    """derivative_matrices with every N x N matrix formed whole."""
    points = system.points
    w = kernel_deriv_over_r(system.model, cdist(points, points))
    coef = system.U / system.w[None, :]
    out = []
    for a in range(directions.shape[2]):
        t = directions[:, :, a]
        along = np.einsum("jm,jm->j", t, points)[:, None] - t @ points.T
        out.append((along * w) @ coef)
    return out


def random_directions(N, n, d, seed):
    t = np.random.default_rng(seed).standard_normal((N, n, d))
    return t / np.linalg.norm(t, axis=1, keepdims=True)


BLOCK_ROWS = 32


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("N", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               3 * BLOCK_ROWS + 5, 10])
def test_derivative_matrices_match_the_dense_formula(family, d, N,
                                                     monkeypatch):
    # a budget of BLOCK_ROWS rows at this N: one block short of, exactly,
    # just over and several blocks with a remainder, and far below N
    monkeypatch.setattr(rbf, "ROW_BLOCK_BYTES", 8 * N * BLOCK_ROWS)
    cloud = sample_manifold(Sphere(), N, seed=N)
    system = build_system(cloud, KernelModel(family, 1.5))
    directions = random_directions(N, 3, d, seed=d)
    got = derivative_matrices(system, directions)
    want = dense_derivative_matrices(system, directions)
    assert len(got) == d
    for Ga, Ra in zip(got, want):
        assert Ga.shape == (N, system.rank_L)
        assert np.max(np.abs(Ga - Ra)) <= 1e-9 * np.max(np.abs(Ra))


def test_derivative_matrices_allocate_no_n_by_n_matrix():
    # the outputs, the scaled basis and the row blocks stay well under the
    # N x N kernel-derivative matrix a whole-matrix build would allocate
    N, r = 2000, 200
    cloud = sample_manifold(Sphere(), N, seed=0)
    U, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((N, r)))
    system = InterpolationSystem(points=cloud.points,
                                 model=KernelModel("gaussian", 2.0), U=U,
                                 w=np.linspace(2.0, 1.0, r), rank_L=r)
    directions = random_directions(N, 3, 2, seed=2)
    tracemalloc.start()
    try:
        derivative_matrices(system, directions)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * N * N
