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

Whole factors G_a (build_grad_matrices) serve the NRBF operators alone.
Every SRBF form, scalar or vector, is a sum over points: _weak_form sums it
over the row blocks of rbf.derivative_blocks, never holding a whole factor,
and it agrees with the whole-factor Grams to rounding (at most 1.1e-15
relative Frobenius in the tests), not bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .rbf import derivative_blocks, derivative_matrices


@dataclass
class ScalarOperatorSet:
    """The d frame-direction derivative factors with the frames they follow.

    D_a = G[a] @ U.T with U the N x rank_L retained eigenvectors of Phi.
    Every NRBF operator, and no SRBF form, is assembled from it.
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


def _weak_form(system, proj, q, size, terms):
    """(A, 1/q) of an SRBF form with density q (N finite, positive values):
    A (size x size) sums X^T X, exactly symmetric as numpy forms it, over
    the terms X that terms(rows, block) yields for each row block of
    rbf.derivative_blocks along the frames, weighted by sqrt(1/q) in place.
    """
    frames = _frames(system, proj)
    q = np.asarray(q, dtype=float)
    if q.shape != (system.N,) or not np.all((q > 0) & (q < np.inf)):
        raise ValueError("density must be finite and strictly positive, "
                         "one value per point")
    qinv = 1.0 / q
    root = np.sqrt(qinv)
    A = np.zeros((size, size))
    for rows, block in derivative_blocks(system, frames):
        block *= root[rows, None]
        for X in terms(rows, block):
            A += X.T @ X
    return A, qinv


def laplace_beltrami_symmetric(system, proj, q):
    """Weak-form pencil: sum_a D_a^T Q^{-1} D_a = U M U^T with
    B = Q^{-1}, Q = diag(q), and M = sum_a G_a^T Q^{-1} G_a summed by
    _weak_form, one term per row block: the d directions' rows stacked.

    Uniform sampling passes constant q (the constant cancels in the
    generalized spectrum). Its eigenvectors lie in the range of Q U, not of
    U, so on trial coordinates spectral.solve_symmetric solves
    (M, (U^T Q U)^{-1}), whose nonzero eigenvalues are those of M U^T Q U;
    the Galerkin mass U^T Q^{-1} U gives the same values only for constant q.
    """
    def terms(rows, block):
        return [block.reshape(-1, block.shape[2])]

    A, qinv = _weak_form(system, proj, q, system.rank_L, terms)
    return GeneralizedPair(A=A, B_diag=qinv, factor=system.U)
