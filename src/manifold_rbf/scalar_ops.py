"""Discrete tangential derivatives and Laplace-Beltrami operators.

From an interpolation system and a tangent frame field T (N, n, d) this
module assembles the d frame-direction derivative matrices D_a:
(D_a f)_j is the derivative of the interpolant of f at x_j along the frame
vector T(x_j)[:, a]. The ambient components of the tangential gradient are
G_i = sum_a diag(T[:, i, a]) D_a. Two discrete Laplacians are built from
them: the pointwise non-symmetric estimator -sum_i G_i G_i (the paper's
ambient form) and the density-weighted symmetric pencil
sum_a D_a^T Q^{-1} D_a f = lambda Q^{-1} f, which equals
sum_i G_i^T Q^{-1} G_i because the frame is orthonormal. Both use the
positive semi-definite sign convention (-div grad).
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .rbf import kernel_deriv_over_r, pinv_matrix


@dataclass
class ScalarOperatorSet:
    """The d frame-direction derivative matrices plus provenance references."""

    G: list                       # d matrices D_a, each (N, N)
    proj: object
    kernel: object
    system: object

    @property
    def N(self):
        return self.G[0].shape[0]


def derivative_matrices(system, directions):
    """Matrices D_a with (D_a f)_j the derivative of the interpolant of f at
    x_j along directions[j, :, a]; directions has shape (N, n, k).

    D_a = (sum_m t_m(x_j) (X^m(x_j) - X^m(x_k)) phi'(r_jk)/r_jk) Phi^+ with
    t = directions[:, :, a]; the diagonal takes the analytic r -> 0 limit.
    """
    points = np.asarray(system.cloud.points, dtype=float)
    w = kernel_deriv_over_r(system.model, cdist(points, points))
    inv = pinv_matrix(system)
    out = []
    for a in range(directions.shape[2]):
        t = directions[:, :, a]
        along = np.einsum("jm,jm->j", t, points)[:, None] - t @ points.T
        out.append((along * w) @ inv)
    return out


def build_grad_matrices(system, proj):
    """The d frame-direction derivative matrices D_a of the interpolant."""
    if proj.N != system.N:
        raise ValueError("projection field does not match the cloud size")
    return ScalarOperatorSet(G=derivative_matrices(system, proj.frames),
                             proj=proj, kernel=system.model, system=system)


def ambient_gradient(ops, i):
    """G_i = sum_a diag(T[:, i, a]) D_a: (G_i f)_j estimates the i-th ambient
    component of the tangential gradient of the interpolant at x_j."""
    T = ops.proj.frames
    return sum(T[:, i, a][:, None] * Da for a, Da in enumerate(ops.G))


def inverse_density(q, N):
    """1 / q after checking that q holds N finite, strictly positive values."""
    q = np.asarray(q, dtype=float)
    if q.shape != (N,) or not np.all(np.isfinite(q)) or np.any(q <= 0):
        raise ValueError("density must be finite and strictly positive, "
                         "one value per point")
    return 1.0 / q


def laplace_beltrami_nonsymmetric(ops):
    """Pointwise estimator -sum_i G_i G_i; spectrum may be complex."""
    N = ops.N
    L = np.zeros((N, N))
    for i in range(ops.proj.n):
        Gi = ambient_gradient(ops, i)
        L -= Gi @ Gi
    return L


@dataclass
class GeneralizedPair:
    """Symmetric pencil A v = lambda B v.

    Every pencil the package builds has a diagonal B (B_diag); a dense
    positive definite B is accepted too. Vector pencils live on frame
    coordinates (d values per point); range_basis, when present, is the
    sparse map W (nN x dN) that lifts a solution Z to the stacked ambient
    field V = W Z.
    """

    A: np.ndarray
    B_diag: np.ndarray = None
    B: np.ndarray = None
    range_basis: object = None     # scipy.sparse (nN, dN) or None


def laplace_beltrami_symmetric(ops, q):
    """Weak-form pencil: A = sum_a D_a^T Q^{-1} D_a, B = Q^{-1}, Q = diag(q).

    Uniform sampling passes constant q (the constant cancels in the
    generalized spectrum).
    """
    qinv = inverse_density(q, ops.N)
    A = np.zeros((ops.N, ops.N))
    for Da in ops.G:
        A += Da.T @ (qinv[:, None] * Da)
    A = 0.5 * (A + A.T)
    return GeneralizedPair(A=A, B_diag=qinv)

