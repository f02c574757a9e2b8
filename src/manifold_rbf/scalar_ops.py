"""Frame derivatives of the interpolant and Laplace-Beltrami operators.

From an interpolation system and a tangent frame field T (N, n, d) this
module takes the d frame-direction derivative factors G_a of
rbf.derivative_matrices: (D_a f)_j = (G_a U^T f)_j is the derivative of the
interpolant of f at x_j along the frame vector T(x_j)[:, a]. The ambient
components of the tangential gradient are G_i U^T with
G_i = sum_a diag(T[:, i, a]) G_a. Two discrete Laplacians are built from
them, both factored through U^T: the pointwise non-symmetric estimator
-sum_i G_i U^T G_i U^T (the paper's ambient form) and the density-weighted
symmetric pencil sum_a D_a^T Q^{-1} D_a f = lambda Q^{-1} f, that is
U (sum_a G_a^T Q^{-1} G_a) U^T. Both use the positive semi-definite sign
convention (-div grad).

The non-symmetric estimator and the vector forms read whole factors G_a
(build_grad_matrices). The symmetric pencil is a sum over points: it is
summed over the row blocks of rbf.derivative_blocks, never holding a
whole factor, and agrees with the whole-factor Grams to rounding (at most
8e-16 relative Frobenius in the tests), not bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .rbf import derivative_blocks, derivative_matrices


@dataclass
class ScalarOperatorSet:
    """The d frame-direction derivative factors with the frames they follow.

    D_a = G[a] @ U.T with U the N x rank_L retained eigenvectors of Phi.
    Every operator but the symmetric Laplace-Beltrami pencil, which is
    summed over row blocks, is assembled from this one container.
    """

    G: list                       # d factors G_a, each (N, rank_L)
    proj: object                  # ProjectionField
    U: np.ndarray

    @property
    def N(self):
        return self.G[0].shape[0]

    @property
    def n(self):
        return self.proj.n


def _frames(system, proj):
    if proj.N != system.N:
        raise ValueError("projection field does not match the cloud size")
    return proj.frames


def build_grad_matrices(system, proj):
    """The d frame-direction derivative factors G_a of the interpolant."""
    G = derivative_matrices(system, _frames(system, proj))
    return ScalarOperatorSet(G=G, proj=proj, U=system.U)


def ambient_gradient(ops, i):
    """G_i = sum_a diag(T[:, i, a]) G_a: (G_i U^T f)_j estimates the i-th
    ambient component of the tangential gradient of the interpolant at x_j."""
    T = ops.proj.frames
    return sum(T[:, i, a][:, None] * Ga for a, Ga in enumerate(ops.G))


def inverse_density(q, N):
    """1 / q after checking that q holds N finite, strictly positive values."""
    q = np.asarray(q, dtype=float)
    if q.shape != (N,) or not np.all(np.isfinite(q)) or np.any(q <= 0):
        raise ValueError("density must be finite and strictly positive, "
                         "one value per point")
    return 1.0 / q


def laplace_beltrami_nonsymmetric(ops):
    """Left factor (N, r) of the pointwise estimator
    L = -sum_i G_i U^T G_i U^T = (-sum_i G_i (U^T G_i)) U^T; its spectrum
    may be complex. spectral.solve_nonsymmetric takes it with basis U."""
    U = ops.U
    L = np.zeros((ops.N, U.shape[1]))
    for i in range(ops.n):
        Gi = ambient_gradient(ops, i)
        L -= Gi @ (U.T @ Gi)
    return L


@dataclass
class GeneralizedPair:
    """Symmetric pencil (R A R^T) v = lambda diag(B_diag) v.

    A is the reduced symmetric matrix and R = factor (dim, p) maps it to the
    pencil's dim coordinates. B is always diagonal (B_diag). Vector pencils
    live on frame coordinates (d values per point), and so do the
    eigenvectors spectral.solve_symmetric returns for them; range_basis,
    when present, holds the frames T (N, n, d), with which a caller lifts a
    solution Z to the stacked ambient field spectral.lift(T, Z).

    The range basis also tells spectral.solve_symmetric how to reduce the
    pencil. Without one (scalar pencils) the factor must have orthonormal
    columns, as U does, so that R^T B^{-1} R is well conditioned and one
    Cholesky factor reduces the pencil. With one (vector pencils) the
    factor may be close to rank-deficient, and a Householder QR reduces it;
    the solver keeps its Q as reflectors, lifts only the modes it returns
    through them, and frees the factor once the reflectors exist.
    """

    A: np.ndarray
    B_diag: np.ndarray
    factor: np.ndarray
    range_basis: object = None     # the frames (N, n, d), or None

    # no dense B is ever formed; code that sizes a pencil by its parts reads
    # this as an empty part
    B = None


def laplace_beltrami_symmetric(system, proj, q):
    """Weak-form pencil: sum_a D_a^T Q^{-1} D_a = U M U^T with
    M = sum_a G_a^T Q^{-1} G_a, B = Q^{-1}, Q = diag(q).

    M is a sum over points, so it is summed over the row blocks of
    rbf.derivative_blocks: each block stacks the d directions' rows, weighted
    by sqrt(1/q), into X and adds X^T X, which numpy forms exactly symmetric.
    No N x r factor G_a and no weighted copy of one is held.

    Uniform sampling passes constant q (the constant cancels in the
    generalized spectrum). Its eigenvectors lie in the range of Q U, not of
    U, so on trial coordinates spectral.solve_symmetric solves
    (M, (U^T Q U)^{-1}), whose nonzero eigenvalues are those of M U^T Q U;
    the Galerkin mass U^T Q^{-1} U gives the same values only for constant q.
    """
    frames = _frames(system, proj)
    qinv = inverse_density(q, system.N)
    root = np.sqrt(qinv)
    A = np.zeros((system.rank_L, system.rank_L))
    for rows, block in derivative_blocks(system, frames):
        block *= root[rows, None]
        X = block.reshape(-1, block.shape[2])
        A += X.T @ X
    return GeneralizedPair(A=A, B_diag=qinv, factor=system.U)
