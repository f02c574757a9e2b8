"""Discrete vector-field operators.

A vector field sampled at N points is stored as the concatenation
(U^1; ...; U^n) of its ambient coordinate samples. The covariant gradient
X = nabla U is the ambient derivative of the interpolated field, projected
onto the tangent space in both indices; the three Laplacians combine it with
its transpose and, for Hodge, the divergence, as listed in LAPLACIANS:

                  symmetric form            non-symmetric form
    Bochner       |X|^2                     -sum_i H_i H_i
    Hodge         |X - X^T|^2/2 + |div U|^2 -sum_i H_i (H_i - S_i) - [G_j G_k]
    Lichnerowicz  |X + X^T|^2/2             -sum_i H_i (H_i + S_i)

The non-symmetric (NRBF) operators keep the paper's nN x nN ambient form:
H_i applies the pointwise projector P = T T^T to the i-th tangential
derivative of every component, and S_i is its index-swapped companion. The
symmetric (SRBF) quadratic forms only ever see tangent fields, so they are
assembled on frame coordinates (d values per point, dN in all) from the
frame covariant derivative and solved as dN x dN pencils with a diagonal
B; the solution is lifted back to ambient components by the frame.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .scalar_ops import (GeneralizedPair, ambient_gradient,
                         derivative_matrices, inverse_density)

# (swap sign, coefficient, divergence term): the operator is built from
# X + swap X^T, its symmetric form weighs |X + swap X^T|^2 by coefficient,
# and Hodge adds the squared divergence.
LAPLACIANS = {
    "bochner": (0, 1.0, False),
    "hodge": (-1, 0.5, True),
    "lichnerowicz": (1, 0.5, False),
}


@dataclass
class VectorField:
    """Stacked ambient components (U^1; ...; U^n), each of length N."""

    vec: np.ndarray
    n: int

    @staticmethod
    def from_samples(samples):
        """Build from (N, n) per-point ambient vectors."""
        samples = np.asarray(samples, dtype=float)
        return VectorField(vec=samples.T.reshape(-1).copy(),
                           n=samples.shape[1])

    def components(self):
        return self.vec.reshape(self.n, -1)

    def as_samples(self):
        return self.components().T


@dataclass
class VectorOperatorSet:
    """Frame derivative matrices plus the tangent frames they pair with."""

    ops: object                 # ScalarOperatorSet
    proj: object                # ProjectionField

    @property
    def N(self):
        return self.ops.N

    @property
    def n(self):
        return self.proj.n


def build_vector_ops(ops, proj):
    if proj.N != ops.N:
        raise ValueError("projection field does not match the operator cloud")
    return VectorOperatorSet(ops=ops, proj=proj)


def potimes_matrix(vops):
    """Dense block projection: block (i, j) is diag of the (i, j) entries."""
    P = vops.proj.mats
    N, n = vops.N, vops.n
    out = np.zeros((n * N, n * N))
    rng = np.arange(N)
    for i in range(n):
        for j in range(n):
            out[i * N + rng, j * N + rng] = P[:, i, j]
    return out


def h_matrix(vops, i):
    """H_i: block (j, k) = diag(p_jk) G_i."""
    P = vops.proj.mats
    G = ambient_gradient(vops.ops, i)
    N, n = vops.N, vops.n
    out = np.empty((n * N, n * N))
    for j in range(n):
        for k in range(n):
            out[j * N:(j + 1) * N, k * N:(k + 1) * N] = \
                P[:, j, k][:, None] * G
    return out


def s_matrix(vops, i):
    """S_i: block (j, k) = diag(p_ki) G_j."""
    P = vops.proj.mats
    N, n = vops.N, vops.n
    out = np.empty((n * N, n * N))
    for j in range(n):
        Gj = ambient_gradient(vops.ops, j)
        for k in range(n):
            out[j * N:(j + 1) * N, k * N:(k + 1) * N] = \
                P[:, k, i][:, None] * Gj
    return out


def _subtract_gram_blocks(L, G):
    # L -= [G_j G_k] in place
    n = len(G)
    N = G[0].shape[0]
    for j in range(n):
        for k in range(n):
            L[j * N:(j + 1) * N, k * N:(k + 1) * N] -= G[j] @ G[k]


def tangent_range_basis(proj):
    """Sparse W (nN x dN) mapping frame coordinates to ambient components.

    Entry ((i, k), (a, k)) is T(x_k)[i, a]; frames at different points have
    disjoint support, so W has orthonormal columns.
    """
    T = proj.frames
    N, n, d = T.shape
    i, a, k = np.meshgrid(np.arange(n), np.arange(d), np.arange(N),
                          indexing="ij")
    return scipy.sparse.csr_array(
        (T[k, i, a].ravel(), ((i * N + k).ravel(), (a * N + k).ravel())),
        shape=(n * N, d * N))


def _frame_covariant_derivative(vops):
    """The d matrices K_c (dN x dN) of the covariant derivative along frame
    vector c, in frame coordinates on both sides:

        K_c[(b, r), (a, k)] = D_c[r, k] * (T(x_r)[:, b] . T(x_k)[:, a]).

    Row (b, r) of K_c u is the component X_cb(x_r) of the covariant gradient
    of the field with frame coordinates u.
    """
    T = vops.proj.frames
    d = T.shape[2]
    C = [[T[:, :, b] @ T[:, :, a].T for a in range(d)] for b in range(d)]
    return [np.block([[Dc * C[b][a] for a in range(d)] for b in range(d)])
            for Dc in vops.ops.G]


def _symmetric_pair(vops, q, swap, coeff, div):
    """A = coeff sum_c F_c^T Qt^{-1} F_c (+ Delta^T Q^{-1} Delta) on frame
    coordinates, B = Qt^{-1}, Qt = diag(q tiled d times). Row block b of
    F_c is row block b of K_c plus swap times row block c of K_b, so F_c u
    holds X_cb + swap X_bc; Delta = sum_c (row block c of K_c) is the
    divergence."""
    N = vops.N
    qinv = inverse_density(q, N)
    cov = _frame_covariant_derivative(vops)
    d = len(cov)
    qtinv = np.tile(qinv, d)
    A = np.zeros((d * N, d * N))
    for c, Kc in enumerate(cov):
        F = Kc
        if swap:
            F = np.vstack([Kb[c * N:(c + 1) * N] for Kb in cov])
            F *= swap
            F += Kc
        A += coeff * (F.T @ (qtinv[:, None] * F))
        del F
    if div:
        Delta = sum(Kc[c * N:(c + 1) * N] for c, Kc in enumerate(cov))
        A += Delta.T @ (qinv[:, None] * Delta)
    A = 0.5 * (A + A.T)
    return GeneralizedPair(A=A, B_diag=qtinv,
                           range_basis=tangent_range_basis(vops.proj))


def _laplacian(name, kind, vops, q):
    swap, coeff, div = LAPLACIANS[name]
    if kind == "symmetric":
        return _symmetric_pair(vops, q, swap, coeff, div)
    if kind != "nonsymmetric":
        raise ValueError(f"unknown estimator kind {kind!r}")
    dim = vops.n * vops.N
    L = np.zeros((dim, dim))
    for i in range(vops.n):
        Hi = h_matrix(vops, i)
        F = Hi
        if swap:
            F = s_matrix(vops, i)
            F *= swap
            F += Hi
        L -= Hi @ F
        del F
    if div:
        _subtract_gram_blocks(
            L, [ambient_gradient(vops.ops, j) for j in range(vops.n)])
    return L


def bochner(kind, vops, q=None):
    """Vector (connection) Laplacian estimator."""
    return _laplacian("bochner", kind, vops, q)


def hodge(kind, vops, q=None):
    """1-form Laplacian carried to vector fields."""
    return _laplacian("hodge", kind, vops, q)


def lichnerowicz(kind, vops, q=None):
    """Laplacian of the symmetrized covariant gradient."""
    return _laplacian("lichnerowicz", kind, vops, q)


def covariant_derivative(vops, system, U, Y):
    """Project the ambient directional derivative of the interpolated field.

    Each component Y^r is interpolated; its ambient gradient is contracted
    with U at the nodes and the result projected back to the tangent spaces.
    """
    n, N = vops.n, vops.N
    D = derivative_matrices(system, np.broadcast_to(np.eye(n), (N, n, n)))
    Uc = U.components() if isinstance(U, VectorField) else \
        VectorField.from_samples(U).components()
    Yc = Y.components() if isinstance(Y, VectorField) else \
        VectorField.from_samples(Y).components()
    W = np.zeros_like(Yc)
    for r in range(n):
        for k in range(n):
            W[r] += Uc[k] * (D[k] @ Yc[r])
    out = np.einsum("kij,jk->ik", vops.proj.mats, W)
    return VectorField(vec=out.reshape(-1).copy(), n=n)
