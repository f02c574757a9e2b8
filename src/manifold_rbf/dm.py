"""Graph-Laplacian (diffusion maps) baseline for the scalar Laplacian.

KNN-sparsified Gaussian affinities with the density-cancelling
normalization: the affinity is divided by the kernel density sums on both
sides before the row-stochastic normalization, so the limit operator is the
Laplace-Beltrami operator regardless of the sampling density. The graph has
at most 2 N K edges, so the affinity and the Laplacian are sparse (CSR) and
every normalization is a diagonal scaling of the edge weights. One KNN query
serves both the bandwidth tuning and the graph. The final solve goes
through the symmetric conjugation of the Markov matrix: ARPACK's Lanczos
iteration (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, 1998) finds the k
smallest modes and the largest eigenvalue, which sets the trivial-mode
cutoff.

The graph takes K neighbours and the bandwidth epsilon as plain numbers,
None for their defaults (graph_neighbors, autotune_epsilon).
"""

import warnings

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components

from .tangent import knn_indices


def graph_neighbors(N, K=None):
    """Neighbours of the graph on N points: K, or ceil(sqrt(N)) for None."""
    return int(np.ceil(np.sqrt(N))) if K is None else K


def validate_graph(N, K=None, epsilon=None):
    """Refuse a K or an epsilon that no graph on N points can take."""
    if not 1 < graph_neighbors(N, K) <= N:
        raise ValueError("K_neighbors must lie in (1, N]")
    if epsilon is not None and not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be finite and positive, or None to "
                         "auto-tune it")


def autotune_epsilon(d2):
    """Bandwidth at the steepest log-log growth of the kernel sum.

    d2 holds the (N, K) squared distances of every point to its K nearest
    neighbours. T(eps) = sum over KNN pairs (self-pairs included) of
    exp(-d^2 / (4 eps)) evaluated on the dyadic grid eps = 2^-30 .. 2^10;
    the returned eps maximizes d log T / d log eps.
    """
    # self-pairs contribute exp(0) = N, the plateau the criterion needs
    exponents = np.arange(-30, 11)
    T = np.array([d2.shape[0] +
                  np.sum(np.exp(-d2 / (4.0 * 2.0 ** e))) for e in exponents])
    logT = np.log(T)
    slope = np.gradient(logT, np.log(2.0 ** exponents))
    return float(2.0 ** exponents[int(np.argmax(slope))])


def _scale_edges(M, s):
    # M <- diag(s) M diag(s) in place, on the stored entries of a CSR
    # matrix; s_i * s_j is one product for (i, j) and (j, i), so a
    # symmetric M stays exactly symmetric
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    M.data *= s[rows] * s[M.indices]


def dm_laplacian(cloud, K=None, epsilon=None):
    """Symmetrized graph Laplacian of K neighbours and bandwidth epsilon
    (None for their defaults) and the similarity back-transform.

    Returns (L, vec_scale): L is the sparse (CSR) symmetric Laplacian
    (I - S) / eps, and eigenvectors of the underlying Markov generator are
    vec_scale * (eigenvectors of L).
    """
    points = np.asarray(cloud.points, dtype=float)
    N = points.shape[0]
    validate_graph(N, K, epsilon)
    idx = knn_indices(points, min(graph_neighbors(N, K), N - 1))
    diff = points[:, None, :] - points[idx]
    d2 = np.einsum("ikm,ikm->ik", diff, diff)
    del diff                    # 3 N K words the graph build need not hold
    eps = autotune_epsilon(d2) if epsilon is None else epsilon

    # no self-loops: at bandwidths near the neighbor spacing a unit
    # self-weight swamps the off-diagonal mass and biases all eigenvalues
    # low, so the affinity keeps only true neighbor pairs (the KNN lists
    # never hold the query point)
    K = idx.shape[1]
    W = scipy.sparse.csr_matrix(
        (np.exp(-d2.reshape(-1) / (4.0 * eps)), idx.reshape(-1),
         np.arange(0, N * K + 1, K)), shape=(N, N))
    # symmetric KNN graph; maximum stores only nonzero results, so a weight
    # that underflowed to zero is no edge
    W = W.maximum(W.T)

    n_comp, _labels = connected_components(W, directed=False)
    if n_comp > 1:
        warnings.warn(f"KNN graph has {n_comp} connected components; "
                      "spectrum computed anyway", RuntimeWarning)

    q = np.asarray(W.sum(axis=1)).ravel()   # kernel density at the nodes
    _scale_edges(W, 1.0 / q)                # density-cancelled affinity
    scale = 1.0 / np.sqrt(np.asarray(W.sum(axis=1)).ravel())
    _scale_edges(W, scale)                  # S, conjugate of the Markov matrix
    L = (scipy.sparse.identity(N, format="csr") - W) / eps
    return L, scale


def dm_spectrum(cloud, k, K=None, epsilon=None):
    """The k smallest eigenvalues of dm_laplacian, ascending, their Markov
    eigenvectors (N, k), and the largest eigenvalue."""
    L, scale = dm_laplacian(cloud, K, epsilon)
    N = L.shape[0]
    if k >= N - 1:
        # beyond what a Lanczos basis of at most N vectors can resolve
        lam, Z = np.linalg.eigh(L.toarray())
        return lam[:k], scale[:, None] * Z[:, :k], float(lam[-1])
    # ARPACK's own start vector is not repeatable from call to call; a
    # seeded one keeps the spectrum, and the CSVs written from it,
    # bit-identical
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, N)
    lam, Z = scipy.sparse.linalg.eigsh(L, k, which="SA", v0=v0)
    order = np.argsort(lam, kind="stable")
    lam_max = scipy.sparse.linalg.eigsh(L, 1, which="LA", v0=v0,
                                        return_eigenvectors=False)
    return lam[order], scale[:, None] * Z[:, order], float(lam_max[0])
