"""Discrete vector-field operators.

A vector field sampled at N points is an (N, n) array of ambient
vectors. Its concatenation (U^1; ...; U^n) of ambient coordinate samples,
stacked(samples), is the layout of the vector truths and of the dense
references; the operators act on frame coordinates. The covariant gradient
X = nabla U is the ambient derivative of the interpolated field, projected
onto the tangent space in both indices; the three Laplacians combine it with
its transpose and, for Hodge, the divergence, as keyed in LAPLACIANS:

                  symmetric form (SRBF)     non-symmetric form (NRBF)
    Bochner       |X|^2                     -sum_i H_i H_i
    Hodge         |X - X^T|^2/2 + |div U|^2 -sum_i H_i (H_i - S_i) - [G_j G_k]
    Lich          |X + X^T|^2/2             -sum_i H_i (H_i + S_i)

Every Laplacian takes the interpolation system and the frames of the cloud,
and its derivatives follow the frames. Every derivative ends in
Phi^+ = U diag(1/w) U^T (U is N x r, r = rank_L), so every block acts
through I_n kron U^T. Both forms output tangent fields only, and both keep
them on frame coordinates (d values per point). W, the nN x dN range basis
of the frames (orthonormal columns; see spectral), maps them to ambient
components: spectral.lift(proj.frames, Z) lifts a solution Z to the
stacked ambient field W Z, and no operator or solve forms W.
The non-symmetric (NRBF) operators are the paper's ambient form
L = W F (I_n kron U^T), built from the whole derivative factors as the
dN x nr factor F = W^T (ambient factor), whose nonzero spectrum is that of
W^T L W = F (I_n kron U^T) W; H_i applies the pointwise projector P = T T^T
to the i-th tangential derivative of every component, S_i is its
index-swapped companion, and neither is formed: each N-row block of the
ambient factor is accumulated term by term on N rows and taken to frame
rows, so no nN-row block and no nr x nr block exists. The symmetric (SRBF)
quadratic forms are pencils R A R^T with diagonal B, R = W^T (I_n kron U)
of size dN x nr, whose A is summed over the derivative row blocks like the
scalar pencil's (scalar_ops._weak_form). h_matrix, s_matrix and
potimes_matrix give the dense nN x nN blocks for reference; no operator
forms them. The covariant derivative nabla_U Y
differentiates the interpolant of Y along U itself, one derivative factor,
and projects the result.
"""

import numpy as np

from .rbf import blockwise, derivative_matrices
from .scalar_ops import (GeneralizedPair, _weak_form, ambient_gradient,
                         build_grad_matrices)

# (swap sign, coefficient, divergence term): the operator is built from
# X + swap X^T, its symmetric form weighs |X + swap X^T|^2 by coefficient,
# and Hodge adds the squared divergence.
LAPLACIANS = {
    "Bochner": (0, 1.0, False),
    "Hodge": (-1, 0.5, True),
    "Lich": (1, 0.5, False),
}


def stacked(samples):
    """The (nN,) coordinate-stacked vector (U^1; ...; U^n) of (N, n)
    per-point ambient samples: the layout of the vector truths and of
    h_matrix, s_matrix and potimes_matrix."""
    return np.asarray(samples).T.reshape(-1)


def _rowwise_kron(t, g):
    """(N, a b) matrix whose row x is kron(t[x], g[x])."""
    return np.einsum("xa,xb->xab", t, g).reshape(len(t), -1)


def _gradients(ops):
    return [ambient_gradient(ops, i) for i in range(ops.n)]


def _term_rows(P, G, i, j, swap):
    # row block j of the factor of H_i + swap S_i, which times I_n kron U^T
    # is the operator: diag(p_jk) G_i + swap diag(p_ki) G_j in column block
    # k; the swap part goes in one N x r block at a time, so the term holds
    # one N x nr array
    X = _rowwise_kron(P[:, j], G[i])
    if swap:
        for k, Xk in enumerate(np.hsplit(X, len(G))):
            Xk += swap * (P[:, k, i][:, None] * G[j])
    return X


def potimes_matrix(ops):
    """Dense block projection: block (i, j) is diag of the (i, j) entries."""
    P = ops.proj.mats
    N, n = ops.N, ops.n
    out = np.zeros((n * N, n * N))
    rng = np.arange(N)
    for i in range(n):
        for j in range(n):
            out[i * N + rng, j * N + rng] = P[:, i, j]
    return out


def h_matrix(ops, i):
    """Dense H_i: block (j, k) = diag(p_jk) G_i U^T."""
    P, G = ops.proj.mats, _gradients(ops)
    F = np.vstack([_term_rows(P, G, i, j, 0) for j in range(ops.n)])
    return blockwise(ops.U, F.T).T


def s_matrix(ops, i):
    """Dense S_i: block (j, k) = diag(p_ki) G_j U^T."""
    P = ops.proj.mats
    F = np.vstack([_rowwise_kron(P[:, :, i], Gj) for Gj in _gradients(ops)])
    return blockwise(ops.U, F.T).T


def _nonsymmetric_factor(ops, swap, div):
    """F (dN, nr) of the paper's ambient form on frame coordinates.

    L = -sum_i H_i (H_i + swap S_i) - div [G_j U^T G_k U^T] has tangent
    output, L = W W^T L, so its nonzero spectrum is that of
    W^T L W = F (I_n kron U^T) W. As T^T P = T^T, row block a of F is
    -sum_l diag(T[:, l, a]) X_l - div G_a [U^T G_1 ... U^T G_n] with G_a
    the frame factor and X_l = sum_i G_i U^T (row block l of the factor of
    H_i + swap S_i), accumulated one term at a time on N rows.
    """
    U, T, P = ops.U, ops.proj.frames, ops.proj.mats
    G = _gradients(ops)
    F = np.zeros((len(ops.G), ops.N, ops.n * U.shape[1]))
    X = np.empty(F.shape[1:])
    for l in range(ops.n):
        X[:] = 0.0
        for i, Gi in enumerate(G):
            X += Gi @ (U.T @ _term_rows(P, G, i, l, swap))
        for a, Fa in enumerate(F):
            Fa -= T[:, l, a][:, None] * X
    if div:
        X = np.hstack([U.T @ Gk for Gk in G])
        for Ga, Fa in zip(ops.G, F):
            Fa -= Ga @ X
    return F.reshape(-1, F.shape[2])


def tangent_range_basis(proj):
    """Sparse W (nN x dN) mapping frame coordinates to ambient components.

    Entry ((i, k), (a, k)) is T(x_k)[i, a]; frames at different points have
    disjoint support, so W has orthonormal columns. No study calls it (they
    use spectral.lift): it is the tests' reference for lift, kept while the
    benchmark's span tracer wraps it by name.
    """
    import scipy.sparse        # loaded by this reference alone

    T = proj.frames
    N, n, d = T.shape
    i, a, k = np.meshgrid(np.arange(n), np.arange(d), np.arange(N),
                          indexing="ij")
    return scipy.sparse.csr_array(
        (T[k, i, a].ravel(), ((i * N + k).ravel(), (a * N + k).ravel())),
        shape=(n * N, d * N))


def _symmetric_pair(system, proj, q, swap, coeff, div):
    """Frame-coordinate pencil (R A R^T) v = lambda Qt^{-1} v with
    Qt = diag(q tiled d times) and R = W^T (I_n kron U): row (a, k) of R is
    kron(T(x_k)[:, a], U[k]).

    The frame covariant derivative along c, K_c[(b, x), (a, k)] =
    D_c[x, k] (T(x)[:, b] . T(x_k)[:, a]), has row block b equal to
    C(b, c) R^T with C(b, c) = rows kron(T(x)[:, b], G_c[x]). So
    X_cb + swap X_bc is F_cb R^T with F_cb = C(b, c) + swap C(c, b), the
    divergence is Delta R^T with Delta = sum_c C(c, c), and
    A = coeff sum_{b,c} F_cb^T Q^{-1} F_cb (+ Delta^T Q^{-1} Delta), summed
    over row blocks with sqrt(coeff) on the frames of the F_cb.
    """
    T = proj.frames
    n, d = T.shape[1:]
    scaled = np.sqrt(coeff) * T

    def terms(rows, block):
        for c in range(d):
            for b in range(d):
                F = _rowwise_kron(scaled[rows, :, b], block[c])
                if swap:
                    F += swap * _rowwise_kron(scaled[rows, :, c], block[b])
                yield F
        if div:
            yield np.einsum("xic,cxk->xik", T[rows], block).reshape(
                block.shape[1], -1)

    A, qinv = _weak_form(system, proj, q, n * system.rank_L, terms)
    R = np.vstack([_rowwise_kron(T[:, :, a], system.U) for a in range(d)])
    return GeneralizedPair(A=A, B_diag=np.tile(qinv, d), factor=R,
                           range_basis=T)


def _laplacian(name, method, system, proj, q):
    swap, coeff, div = LAPLACIANS[name]
    if method == "NRBF":
        return _nonsymmetric_factor(build_grad_matrices(system, proj), swap,
                                    div)
    if method != "SRBF":
        raise ValueError(f"unknown method {method!r} for a vector Laplacian")
    return _symmetric_pair(system, proj, q, swap, coeff, div)


def bochner(method, system, proj, q=None):
    """Vector (connection) Laplacian estimator."""
    return _laplacian("Bochner", method, system, proj, q)


def hodge(method, system, proj, q=None):
    """1-form Laplacian carried to vector fields."""
    return _laplacian("Hodge", method, system, proj, q)


def lichnerowicz(method, system, proj, q=None):
    """Lichnerowicz (Lich) Laplacian, of the symmetrized covariant gradient."""
    return _laplacian("Lich", method, system, proj, q)


def covariant_derivative(system, proj, U, Y):
    """Project the ambient directional derivative of the interpolated field
    Y along U; U, Y and the result are (N, n) ambient samples.

    Each component Y^r is interpolated and differentiated along U at the
    nodes; the result is projected onto the tangent spaces of proj.
    """
    (G,) = derivative_matrices(system, U[:, :, None])
    W = G @ (system.U.T @ Y)
    return np.einsum("jik,jk->ji", proj.mats, W)
