"""Eigensolvers, mode ordering, OLS alignment, error metrics, CSV export."""

import tracemalloc
import warnings

import numpy as np
import pytest

from manifold_rbf.rbf import KernelModel, build_system
from manifold_rbf.scalar_ops import (GeneralizedPair, build_grad_matrices,
                                     laplace_beltrami_symmetric)
from manifold_rbf.spectral import (_apply_q, _back_substitute, _householder,
                                   align_eigenvectors_ols, lift,
                                   solve_nonsymmetric, solve_symmetric,
                                   write_alignment_csv, write_spectrum_csv)
from manifold_rbf.vector_ops import hodge, tangent_range_basis
from manifold_rbf.zoo import (Ellipse, GeneralTorus, Sphere, Torus,
                              analytic_projection, sample_manifold)


# -- the range basis of the frames --------------------------------------------


@pytest.mark.parametrize("spec, N", [(Sphere(), 800), (Torus(2.0), 500),
                                     (GeneralTorus(2.0, 21), 300),
                                     (Ellipse(2.0), 200)],
                         ids=["sphere", "torus", "gtorus21", "ellipse"])
@pytest.mark.parametrize("mode", ["random_area", "random_intrinsic"])
def test_lift_reproduces_the_sparse_range_basis_bit_for_bit(spec, N, mode):
    # W Z, W^T F and every row block of W Z, over the frames alone: each
    # sums a row's terms in the sparse product's order
    proj = analytic_projection(sample_manifold(spec, N, seed=3, mode=mode))
    T = proj.frames
    _N, n, d = T.shape
    W = tangent_range_basis(proj)
    rng = np.random.default_rng(5)
    for c in (1, 7, 121):
        Z = rng.standard_normal((d * N, c))
        F = rng.standard_normal((n * N, c))
        WZ = lift(T, Z)
        assert np.array_equal(WZ, W @ Z)
        assert np.array_equal(lift(T.transpose(0, 2, 1), F), W.T @ F)
        for i in range(n):
            assert np.array_equal(lift(T[:, i:i + 1], Z),
                                  WZ[i * N:(i + 1) * N])


# -- symmetric pencil solver ---------------------------------------------------


def test_symmetric_diagonal_case():
    pair = GeneralizedPair(A=np.diag([0.0, 1.0, 4.0]), B_diag=np.ones(3),
                           factor=np.eye(3))
    res = solve_symmetric(pair, k=3)
    assert np.allclose(res.values, [0.0, 1.0, 4.0], atol=1e-14)
    assert np.allclose(np.abs(res.vectors), np.eye(3), atol=1e-14)
    assert res.ordering == "by_real_ascending"


def test_symmetric_gram_psd():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((40, 40))
    pair = GeneralizedPair(A=G.T @ G, B_diag=np.ones(40), factor=np.eye(40))
    res = solve_symmetric(pair, k=40)
    assert res.values.min() >= -1e-10 * np.abs(res.values).max()


def test_symmetric_b_orthonormal_and_residual():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((30, 30))
    A = G.T @ G
    b = rng.uniform(0.5, 2.0, size=30)
    res = solve_symmetric(GeneralizedPair(A=A, B_diag=b, factor=np.eye(30)),
                          k=30)
    V = res.vectors
    assert np.abs(V.T @ (b[:, None] * V) - np.eye(30)).max() <= 1e-8
    resid = A @ V - b[:, None] * V * res.values[None, :]
    assert np.linalg.norm(resid) / np.linalg.norm(A) <= 1e-8


def test_symmetric_rejects_indefinite():
    # B is always diagonal; a zero, negative, NaN or infinite entry is not
    # definite (a NaN used to reach the eigensolver, which did not converge)
    A = np.eye(3)
    for b in ([1.0, -1.0, 1.0], [1.0, 0.0, 1.0], [1.0, np.nan, 1.0],
              [1.0, np.inf, 1.0]):
        with pytest.raises(ValueError, match="positive definite"):
            solve_symmetric(GeneralizedPair(A=A, B_diag=np.array(b),
                                            factor=np.eye(3)), k=2)


def test_symmetric_k_too_large():
    with pytest.raises(ValueError):
        solve_symmetric(GeneralizedPair(A=np.eye(4), B_diag=np.ones(4),
                                        factor=np.eye(4)), k=5)


# -- non-symmetric solver ------------------------------------------------------


def test_nonsymmetric_rotation_matrix():
    L = np.array([[0.0, 1.0], [-1.0, 0.0]])
    res = solve_nonsymmetric(L, basis=np.eye(len(L)), k=2)
    assert np.allclose(np.abs(res.values), 1.0, atol=1e-14)
    assert np.allclose(sorted(res.values.imag), [-1.0, 1.0], atol=1e-14)


def test_nonsymmetric_requires_square():
    with pytest.raises(ValueError):
        solve_nonsymmetric(np.ones((3, 2)), basis=np.eye(2), k=2)


def test_ordering_tie_break_deterministic():
    # |lambda| = 1 four times: sorted by real part then imaginary part
    L = np.zeros((4, 4))
    L[0, 1], L[1, 0] = 1.0, -1.0          # +-i
    L[2, 2], L[3, 3] = 1.0, -1.0          # +-1
    first = solve_nonsymmetric(L, basis=np.eye(len(L)), k=4)
    again = solve_nonsymmetric(L, basis=np.eye(len(L)), k=4)
    want = np.array([-1.0 + 0j, 0 - 1j, 0 + 1j, 1.0 + 0j])
    assert np.allclose(first.values, want, atol=1e-14)
    assert np.array_equal(first.values, again.values)
    assert np.array_equal(first.vectors, again.vectors)


def test_nonsymmetric_residual():
    rng = np.random.default_rng(2)
    L = rng.standard_normal((50, 50))
    res = solve_nonsymmetric(L, basis=np.eye(len(L)), k=50)
    V, lam = res.vectors[:, :20], res.values[:20]
    resid = L @ V - V * lam[None, :]
    assert np.linalg.norm(resid) / np.linalg.norm(L) <= 1e-6


def test_trivial_flagging():
    L = np.diag([1e-12, 1e-12, 1.0, 2.0])
    res = solve_nonsymmetric(L, basis=np.eye(len(L)), k=4)
    assert list(res.trivial) == [True, True, False, False]
    assert np.allclose(res.nontrivial_values().real, [1.0, 2.0])
    assert res.rank_L == 2
    assert len(res.all_values) == 4


# -- factored operators --------------------------------------------------------


def random_factored(dim, p, seed):
    rng = np.random.default_rng(seed)
    U, _r = np.linalg.qr(rng.standard_normal((dim, p)))
    return rng, U


def test_factored_symmetric_matches_dense_pencil():
    # pencils R A R^T of small and nearly full rank p: each is solved on the
    # range of B^{-1/2} R, the other dim - p modes are structural zeros
    for p in (12, 35):
        rng, R = random_factored(40, p, p)
        G = rng.standard_normal((p, p))
        A = G @ G.T
        b = rng.uniform(0.5, 2.0, 40)
        res = solve_symmetric(GeneralizedPair(A=A, B_diag=b, factor=R), 40)
        dense = solve_symmetric(GeneralizedPair(A=R @ A @ R.T, B_diag=b,
                                                factor=np.eye(40)), 40)
        assert res.structural_zeros == 40 - p
        assert len(res.all_values) == 40
        assert np.abs(res.all_values - dense.all_values).max() <= \
            1e-12 * dense.all_values.max()
        V = res.vectors
        assert V.shape == (40, res.solve_dim)
        assert np.abs(V.T @ (b[:, None] * V) - np.eye(res.solve_dim)).max() \
            <= 1e-10
        resid = R @ A @ R.T @ V - b[:, None] * V * res.values[None, :]
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(A)


def test_factored_nonsymmetric_null_modes_are_finite_unit_vectors():
    # F has zero columns, so the reduced matrix has exact null vectors y
    # with F y = 0; their lifts must still be finite unit vectors
    rng, U = random_factored(30, 10, 4)
    F = rng.standard_normal((30, 10))
    F[:, [0, 7]] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_nonsymmetric(F, basis=U, k=30)
    assert res.structural_zeros == 20 and res.solve_dim == 10
    assert np.all(res.all_values[:20] == 0.0)
    assert res.vectors.shape == (30, 10)
    assert np.all(np.isfinite(res.vectors))
    assert np.allclose(np.linalg.norm(res.vectors, axis=0), 1.0, atol=1e-12)
    assert np.sum(res.trivial) >= 2
    L = F @ U.T
    resid = L @ res.vectors - res.vectors * res.values[None, :]
    assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(L)


def test_nonsymmetric_lift_holds_one_copy_of_the_eigenvectors():
    # with 6p rows the traced peak is the lift: Y (6 p^2 words), the
    # interleaved parts (2 p^2) and the product (12 p^2); a second p x p
    # complex copy of the eigenvectors alive beside them adds 2 p^2
    rng = np.random.default_rng(3)
    N, p = 600, 100
    U = np.linalg.qr(rng.standard_normal((N, p)))[0]
    L = rng.standard_normal((N, p))
    tracemalloc.start()
    try:
        solve_nonsymmetric(L, basis=U, k=N)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 21 * 8 * p * p


def test_wide_vector_solve_holds_two_factor_blocks():
    # p = n r above the d N frame rows, as on the n = 21 torus: a factor
    # handed over as a temporary is freed once its raw QR exists, and the
    # reflectors are copied out of the factored copy, so neither sits beside
    # the copy and R; the peak is two d N x p blocks and the small rest
    # (measured 2.22 blocks; 3.13 while the factor outlived the QR)
    rng = np.random.default_rng(4)
    N, n, d, r = 40, 21, 2, 40
    m, p = d * N, n * r
    U = np.linalg.qr(rng.standard_normal((N, r)))[0]
    T = np.linalg.qr(rng.standard_normal((N, n, d)))[0]
    tracemalloc.start()
    try:
        solve_nonsymmetric(rng.standard_normal((m, p)), basis=U, k=10,
                           range_basis=T)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * m * p


def test_nonsymmetric_hodge_modes_have_rounding_residuals(sphere_ops):
    # the factor's condition number is about 2e18, 55 of its 270 singular
    # values below 1e-8 of the largest: a slip in applying the reflectors
    # shows here (measured: 4.4e-13 with numpy's thin Q, 3.6e-13 with the
    # reflectors)
    system, ops, q = sphere_ops
    F = hodge("NRBF", system, ops.proj)
    T = ops.proj.frames
    res = solve_nonsymmetric(F, basis=ops.U, k=len(F), range_basis=T)
    L = lift(T, F @ np.kron(np.eye(3), ops.U.T))
    V = lift(T, res.vectors)
    resid = np.linalg.norm(L @ V - V * res.values[None, :], axis=0)
    assert resid.max() <= 1e-12 * np.linalg.norm(L, 2)


def test_factored_nonsymmetric_rejects_mismatched_basis():
    # a factor of n N rows without its frames is refused too: the stacked
    # ambient operator is not a form the package builds; so are frames of a
    # cloud of another size, with a factor that fits n, d and r
    _rng, U = random_factored(30, 10, 5)
    for L in (np.ones((30, 15)), np.ones((60, 20))):
        with pytest.raises(ValueError, match="basis"):
            solve_nonsymmetric(L, basis=U, k=1)
    with pytest.raises(ValueError, match="basis"):
        solve_nonsymmetric(np.ones((60, 30)), basis=U, k=1,
                           range_basis=np.ones((40, 3, 2)))


# -- reduction of the SRBF pencils ---------------------------------------------


@pytest.fixture(scope="module")
def sphere_ops():
    """The interpolation system and derivative matrices of a 150-point
    sphere cloud and a non-constant density q in [0.5, 2] on it."""
    cloud = sample_manifold(Sphere(), 150, seed=3, mode="random_area")
    system = build_system(cloud, KernelModel("inverse_quadratic", 0.5))
    ops = build_grad_matrices(system, analytic_projection(cloud))
    return system, ops, np.random.default_rng(3).uniform(0.5, 2.0, cloud.N)


@pytest.fixture(scope="module")
def sphere_pencils(sphere_ops):
    """The SRBF Laplace-Beltrami and Hodge pencils of sphere_ops."""
    system, ops, q = sphere_ops
    return (laplace_beltrami_symmetric(system, ops.proj, q),
            hodge("SRBF", system, ops.proj, q))


def ref_householder(pair):
    """Every eigenpair of a factored pencil on a Householder QR of
    B^{-1/2} R, the reduction the scalar path replaced."""
    scale = 1.0 / np.sqrt(pair.B_diag)
    Y, Rx = np.linalg.qr(scale[:, None] * pair.factor)
    lam, Z = np.linalg.eigh(Rx @ pair.A @ Rx.T)
    return lam, scale[:, None] * (Y @ Z)


def test_scalar_reduction_matches_householder_reference(sphere_pencils):
    pair, _vector = sphere_pencils
    res = solve_symmetric(pair, 40)
    lam, V_ref = ref_householder(pair)
    assert res.structural_zeros == len(pair.B_diag) - len(lam)
    computed = res.all_values[res.structural_zeros:]
    assert np.abs(computed - lam).max() <= 1e-12 * np.abs(lam).max()
    V = res.vectors
    m = V.shape[1]
    gram = V.T @ (pair.B_diag[:, None] * V)
    assert np.abs(gram - np.eye(m)).max() <= 1e-12
    # the leading nontrivial modes are simple: equal up to sign
    for j in np.flatnonzero(~res.trivial)[:3]:
        v, w = V[:, j], V_ref[:, j]
        assert np.linalg.norm(v - np.sign(v @ w) * w) <= 1e-10


def test_scalar_solve_is_the_pencil_not_its_galerkin_form(sphere_pencils):
    # (U A U^T) v = lambda Q^{-1} v puts v in the range of Q U, so on trial
    # coordinates the solve is (A, (U^T Q U)^{-1}), with the eigenvalues of
    # A U^T Q U; the Galerkin mass U^T Q^{-1} U gives them only for constant
    # q (measured: 4.6e-2 apart under q in [0.5, 2], 3.7e-15 at q = 1.3)
    pair, _vector = sphere_pencils
    U, q = pair.factor, 1.0 / pair.B_diag
    for scale in (q, np.full(len(q), 1.3)):
        res = solve_symmetric(GeneralizedPair(A=pair.A, B_diag=1.0 / scale,
                                              factor=U), 10)
        computed = res.all_values[res.structural_zeros:]
        top = np.abs(computed).max()
        trial = np.linalg.eigvals(pair.A @ (U.T @ (scale[:, None] * U)))
        assert np.abs(computed - np.sort(trial.real)).max() <= 1e-12 * top
        galerkin = np.linalg.eigvals(
            np.linalg.solve(U.T @ (U / scale[:, None]), pair.A))
        gap = np.abs(computed - np.sort(galerkin.real)).max() / top
        assert gap > 1e-2 if scale is q else gap <= 1e-12


def test_back_substitution_matches_dense_solve():
    # 300 rows span three diagonal blocks, the top one partial
    rng = np.random.default_rng(6)
    T = np.triu(rng.standard_normal((300, 300))) + 30.0 * np.eye(300)
    Z = rng.standard_normal((300, 9))
    want = np.linalg.solve(T, Z)
    assert np.abs(_back_substitute(T, Z) - want).max() <= \
        1e-13 * np.abs(want).max()


def householder_input(kind):
    rng = np.random.default_rng(9)
    if kind == "tall":
        return rng.standard_normal((60, 25))
    if kind == "rank-deficient":
        # singular values from 1 down to 1e-18: condition number above 1e16
        U = np.linalg.qr(rng.standard_normal((60, 25)))[0]
        W = np.linalg.qr(rng.standard_normal((25, 25)))[0]
        sigma = np.concatenate([np.logspace(0, -7, 15), np.full(10, 1e-18)])
        return (U * sigma) @ W.T
    if kind == "wide":
        return rng.standard_normal((20, 35))
    return np.triu(rng.standard_normal((30, 30)))      # every tau is zero


@pytest.mark.parametrize("kind", ["tall", "rank-deficient", "wide",
                                  "triangular"])
def test_householder_reflectors_apply_numpys_q(kind):
    X = householder_input(kind)
    V, M, R = _householder(*np.linalg.qr(X, mode="raw"))
    k = min(X.shape)
    assert np.array_equal(R, np.linalg.qr(X, mode="r"))
    B = np.random.default_rng(10).standard_normal((k, 4))
    want = np.linalg.qr(X)[0] @ B
    assert np.abs(_apply_q(V, M, B) - want).max() <= \
        1e-14 * np.linalg.norm(B, 2)
    Q = _apply_q(V, M, np.eye(k))
    assert np.abs(Q.T @ Q - np.eye(k)).max() <= 1e-13


def test_scalar_reduction_is_deterministic(sphere_pencils):
    pair, _vector = sphere_pencils
    first, again = solve_symmetric(pair, 40), solve_symmetric(pair, 40)
    assert np.array_equal(first.all_values, again.all_values)
    assert np.array_equal(first.vectors, again.vectors)


@pytest.mark.parametrize("kind", ["scalar", "vector"])
def test_symmetric_solve_leaves_a_held_pencil_intact(sphere_pencils, kind):
    # the solver symmetrises and reduces copies of its own: a pencil its
    # caller still holds keeps every bit
    pair = sphere_pencils[kind == "vector"]
    parts = {name: getattr(pair, name).tobytes()
             for name in ("A", "factor", "B_diag")}
    solve_symmetric(pair, 10)
    for name, before in parts.items():
        assert getattr(pair, name).tobytes() == before, name


def test_nonsymmetric_solve_leaves_a_held_factor_intact():
    rng, U = random_factored(30, 10, 5)
    L = rng.standard_normal((30, 10))
    before = L.tobytes()
    solve_nonsymmetric(L, basis=U, k=30)
    assert L.tobytes() == before


def test_only_vector_pencils_take_a_householder_qr(sphere_pencils,
                                                   monkeypatch):
    scalar, vector = sphere_pencils
    householder = np.linalg.qr

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    solve_symmetric(scalar, 10)
    with pytest.raises(AssertionError, match="np.linalg.qr called"):
        solve_symmetric(vector, 10)
    monkeypatch.setattr(np.linalg, "qr", householder)
    solve_symmetric(vector, 10)


# -- OLS alignment -------------------------------------------------------------


def sphere_harmonic_block(N=500, m=2):
    cloud = sample_manifold(Sphere(), N, seed=0, mode="random_area")
    F = np.column_stack([cloud.points[:, 2], cloud.points[:, 0]])[:, :m]
    return F / np.linalg.norm(F, axis=0)


def test_align_identity():
    F = sphere_harmonic_block()
    assert align_eigenvectors_ols(F, F).max() <= 1e-12


def test_align_recovers_rotation():
    F = sphere_harmonic_block()
    ang = 0.7
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    assert align_eigenvectors_ols(F, F @ R).max() <= 1e-10


def test_align_noise_level_reflected():
    rng = np.random.default_rng(3)
    F = sphere_harmonic_block()
    ang = rng.uniform(0, 2 * np.pi)
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    E = rng.standard_normal(F.shape)
    E /= np.linalg.norm(E, axis=0)
    err = align_eigenvectors_ols(F, F @ R + 0.05 * E)
    assert np.all(np.abs(err - 0.05) <= 0.02)


def test_align_total_error_rotation_invariant():
    rng = np.random.default_rng(4)
    F = sphere_harmonic_block()
    U = F + 0.1 * rng.standard_normal(F.shape)
    R, _ = np.linalg.qr(rng.standard_normal((2, 2)))

    def total(F):
        # sum_j ||F_j - V_j||^2: the squared residual of the whole block
        err = align_eigenvectors_ols(F, U)
        return np.sum((err * np.linalg.norm(F, axis=0)) ** 2)

    assert abs(total(F) - total(F @ R)) <= 1e-10


def test_align_rank_deficient_warns():
    F = sphere_harmonic_block()
    U = np.column_stack([F[:, 0], F[:, 0]])
    with pytest.warns(RuntimeWarning):
        align_eigenvectors_ols(F, U)


def test_align_rejects_bad_input():
    F = sphere_harmonic_block()
    with pytest.raises(ValueError):
        align_eigenvectors_ols(F, F[:, :1])
    bad = F.copy()
    bad[:, 1] = 0.0
    with pytest.raises(ValueError):
        align_eigenvectors_ols(bad, F)


# -- CSV export ----------------------------------------------------------------


def test_spectrum_csv(tmp_path):
    L = np.diag([1e-13, 1.0, 2.0])
    res = solve_nonsymmetric(L, basis=np.eye(len(L)), k=3)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, res, config_echo={"N": 3})
    text = path.read_text()
    assert "schema=spectrum-v1" in text
    assert '"N": 3' in text
    data = np.loadtxt(path, delimiter=",")
    assert data.shape == (3, 5)
    assert list(data[:, 4]) == [1.0, 0.0, 0.0]      # trivial flags
    assert np.allclose(data[:, 3], [1e-13, 1.0, 2.0])


def test_spectrum_csv_reports_structural_zeros(tmp_path):
    # the header explains the trivial cluster: exact zeros never computed
    _rng, U = random_factored(20, 4, 6)
    F = np.random.default_rng(7).standard_normal((20, 4))
    res = solve_nonsymmetric(F, basis=U, k=20)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, res, config_echo={"N": 20})
    assert "rank_L=4 structural_zeros=16 solve_dim=4" in path.read_text()
    data = np.loadtxt(path, delimiter=",")
    assert data.shape == (20, 5)
    assert np.all(data[:16, 4] == 1.0) and np.all(data[:16, 1:4] == 0.0)


def test_alignment_csv(tmp_path):
    path = tmp_path / "align.csv"
    write_alignment_csv(path, [1.0, 1.0], [1.02, 0.97], [0.01, 0.02],
                        config_echo={"N": 2})
    text = path.read_text()
    assert "schema=alignment-v1" in text
    assert "OLS alignment" in text
    data = np.loadtxt(path, delimiter=",")
    assert data.shape == (2, 4)
    assert np.allclose(data[:, 2], [1.02, 0.97])
