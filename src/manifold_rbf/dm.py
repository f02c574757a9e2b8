"""Graph-Laplacian (diffusion maps) baseline for the scalar Laplacian.

KNN-sparsified Gaussian affinities with the density-cancelling
normalization: the affinity is divided by the kernel density sums on both
sides before the row-stochastic normalization, so the limit operator is the
Laplace-Beltrami operator regardless of the sampling density. The final
solve goes through the symmetric conjugation of the Markov matrix.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from .scalar_ops import GeneralizedPair
from .tangent import knn_indices


@dataclass
class DmConfig:
    K_neighbors: int
    epsilon: float = None       # None means auto-tune

    def validate(self, N):
        if not 1 < self.K_neighbors <= N:
            raise ValueError("K_neighbors must lie in (1, N]")


def default_neighbor_count(N):
    return int(np.ceil(np.sqrt(N)))


def _knn_sq_distances(points, K):
    points = np.asarray(points, dtype=float)
    N = points.shape[0]
    idx = knn_indices(points, min(K, N - 1))
    diff = points[:, None, :] - points[idx]
    return idx, np.einsum("ikm,ikm->ik", diff, diff)


def autotune_epsilon(cloud, K_neighbors):
    """Bandwidth at the steepest log-log growth of the kernel sum.

    T(eps) = sum over KNN pairs (self-pairs included) of
    exp(-d^2 / (4 eps)) evaluated on the dyadic grid eps = 2^-30 .. 2^10;
    the returned eps maximizes d log T / d log eps.
    """
    points = np.asarray(cloud.points, dtype=float)
    _idx, d2 = _knn_sq_distances(points, K_neighbors)
    # self-pairs contribute exp(0) = N, the plateau the criterion needs
    exponents = np.arange(-30, 11)
    T = np.array([points.shape[0] +
                  np.sum(np.exp(-d2 / (4.0 * 2.0 ** e))) for e in exponents])
    logT = np.log(T)
    slope = np.gradient(logT, np.log(2.0 ** exponents))
    return float(2.0 ** exponents[int(np.argmax(slope))])


def dm_laplacian(cloud, config):
    """Symmetrized graph Laplacian and the similarity back-transform.

    Returns (pair, vec_scale): eigenvectors of the underlying Markov
    generator are vec_scale * (eigenvectors of the symmetric pair).
    """
    points = np.asarray(cloud.points, dtype=float)
    N = points.shape[0]
    config.validate(N)
    eps = config.epsilon
    if eps is None:
        eps = autotune_epsilon(cloud, config.K_neighbors)
    idx, d2 = _knn_sq_distances(points, config.K_neighbors)

    W = np.zeros((N, N))
    rows = np.repeat(np.arange(N), idx.shape[1])
    W[rows, idx.reshape(-1)] = np.exp(-d2.reshape(-1) / (4.0 * eps))
    # no self-loops: at bandwidths near the neighbor spacing a unit
    # self-weight swamps the off-diagonal mass and biases all
    # eigenvalues low, so the affinity keeps only true neighbor pairs
    W[np.arange(N), np.arange(N)] = 0.0
    W = np.maximum(W, W.T)        # symmetric KNN graph

    n_comp, _labels = connected_components((W > 0).astype(np.int8),
                                           directed=False)
    if n_comp > 1:
        warnings.warn(f"KNN graph has {n_comp} connected components; "
                      "spectrum computed anyway", RuntimeWarning)

    q = W.sum(axis=1)             # kernel density estimate at the nodes
    Wt = W / np.outer(q, q)
    dt = Wt.sum(axis=1)
    scale = 1.0 / np.sqrt(dt)
    S = scale[:, None] * Wt * scale[None, :]
    L = (np.eye(N) - S) / eps
    L = 0.5 * (L + L.T)
    pair = GeneralizedPair(A=L, B_diag=np.ones(N))
    return pair, scale


def dm_spectrum(cloud, config, k):
    """Leading k eigenvalues/eigenvectors of the diffusion Laplacian."""
    pair, scale = dm_laplacian(cloud, config)
    lam, Z = scipy.linalg.eigh(pair.A)
    vec = scale[:, None] * Z[:, :k]
    return lam[:k], vec, lam
