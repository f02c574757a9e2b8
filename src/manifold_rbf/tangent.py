"""Tangent-space estimation from raw point clouds.

Two estimators for the per-point orthonormal tangent frame T(x) (n x d):
the classical first-order local SVD of neighbor differences, and a
second-order scheme that subtracts a fitted quadratic (Hessian) term from the
differences before the SVD, removing the curvature bias. The frame is the
one representation of the tangent space the operators use; the projector
P = T T^T is derived from it where an ambient form needs it.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .rbf import row_blocks

# Bytes of neighbour differences in one block of the neighbour search or
# of the frame fits. The second-order fit holds about ten arrays of that
# size, so a block's temporaries stay near a megabyte at any N: freed, they
# leave no hole in the heap that outlasts the fit and adds to the resident
# peak of the kernel stages after it.
FRAME_BLOCK_BYTES = 2 ** 17


@dataclass
class ProjectionField:
    """Per-point orthonormal tangent frames, shape (N, n, d).

    Any orthonormal basis of the tangent space will do: the operators and
    their spectra are invariant under a per-point rotation of the frame.
    source records how the field was produced; degenerate flags points whose
    neighborhood did not span d directions (the frame is still the leading-d
    SVD output, never silently replaced); fallback flags points where the
    second-order fit was rank-deficient and the first-order result was kept.
    """

    frames: np.ndarray        # (N, n, d), orthonormal columns
    source: str               # analytic | first_order | second_order
    K_used: int
    degenerate: np.ndarray = field(default=None)
    fallback: np.ndarray = field(default=None)

    def __post_init__(self):
        N = self.frames.shape[0]
        if self.degenerate is None:
            self.degenerate = np.zeros(N, dtype=bool)
        if self.fallback is None:
            self.fallback = np.zeros(N, dtype=bool)

    @property
    def N(self):
        return self.frames.shape[0]

    @property
    def n(self):
        return self.frames.shape[1]

    @property
    def mats(self):
        """The tangential projectors P = T T^T, shape (N, n, n)."""
        return self.frames @ self.frames.transpose(0, 2, 1)


def default_neighbor_count(d):
    # comfortable margin over the d(d+1)/2 quadratic coefficients
    return max(40, 3 * d * (d + 1))


def neighbor_count(K, d, second_order):
    """K, or default_neighbor_count(d) when None, once it is checked to
    suffice: a first-order frame needs K >= d + 1 neighbours, a second-order
    one K > d(d+1)/2 to fit the quadratic coefficients."""
    K = default_neighbor_count(d) if K is None else K
    quad = d * (d + 1) // 2
    if second_order and K <= quad:
        raise ValueError(f"K must exceed d(d+1)/2 = {quad}")
    if K < d + 1:
        raise ValueError("K must be at least d+1")
    return K


def knn_indices(points, K, query_idx=None):
    """Exact K nearest neighbors, excluding the query point.

    Returns (Q, K) indices into `points`, ordered by distance then index.
    query_idx selects a subset of rows to query (neighbors still searched in
    the full set). One KD-tree query of K + 1 neighbors per point, on blocks
    of points of at most FRAME_BLOCK_BYTES of differences; the query point
    is dropped by its index, since exact duplicates sit at distance 0 too
    and may come before it.
    """
    points = np.asarray(points, dtype=float)
    N, n = points.shape
    if K >= N:
        raise ValueError(f"K={K} must be smaller than the cloud size N={N}")
    if query_idx is None:
        query_idx = np.arange(N)
    tree = cKDTree(points)
    out = np.empty((len(query_idx), K), dtype=np.intp)
    for rows in row_blocks(len(query_idx), n * K, FRAME_BLOCK_BYTES):
        query = query_idx[rows]
        _dist, idx = tree.query(points[query], k=K + 1)
        keep = idx != query[:, None]
        # a query point crowded out by duplicates: drop the farthest instead
        keep[keep.all(axis=1), -1] = False
        idx = idx[keep].reshape(len(query), K)
        diff = points[idx]
        diff -= points[query][:, None, :]
        d2 = np.einsum("qkm,qkm->qk", diff, diff)
        del diff
        order = np.lexsort((idx, d2), axis=1)
        out[rows] = np.take_along_axis(idx, order, axis=1)
    return out


def _difference_blocks(points, neighbors, query_idx):
    # D[k] has columns (y_i - x), shape (Q, n, K)
    base = points[query_idx]
    return (points[neighbors] - base[:, None, :]).transpose(0, 2, 1)


def _fit_block(points, neighbors, query, K, d, second_order):
    """Frames, degenerate flags and fallback flags of one block of query
    points; every temporary of the block dies on return."""
    D = _difference_blocks(points, neighbors, query)
    U, s, _ = np.linalg.svd(D, full_matrices=False)
    T = U[:, :, :d]
    degenerate = s[:, d - 1] <= K * np.finfo(float).eps * s[:, 0]
    if not second_order:
        return T, degenerate, False
    rho = np.einsum("qnk,qnd->qkd", D, T)
    cols = [rho[:, :, i] * rho[:, :, i] for i in range(d)]
    cols += [2.0 * rho[:, :, i] * rho[:, :, j]
             for i in range(d) for j in range(i + 1, d)]
    A = np.stack(cols, axis=2)                       # (Q, K, d(d+1)/2)

    Ua, sa, Vta = np.linalg.svd(A, full_matrices=False)
    bad = sa[:, -1] <= K * np.finfo(float).eps * sa[:, 0]
    sinv = np.where(sa > 0, 1.0 / np.where(sa > 0, sa, 1.0), 0.0)
    # Y = 2 pinv(A) D^T, fitted curvature term
    UtD = np.einsum("qkp,qnk->qpn", Ua, D)
    Y = 2.0 * np.einsum("qpi,qp,qpn->qin", Vta, sinv, UtD)
    corrected = 2.0 * D - np.einsum("qkp,qpn->qnk", A, Y)

    U2, _s2, _ = np.linalg.svd(corrected, full_matrices=False)
    # first-order frames kept where the fit is rank-deficient
    return np.where(bad[:, None, None], T, U2[:, :, :d]), degenerate, bad


def _local_svd(cloud, K, d, query_idx, second_order):
    """Frames (Q, n, d), degenerate flags and fallback flags at the query
    points. The neighbour search runs once; the fits run on blocks of
    points of at most FRAME_BLOCK_BYTES of differences, so their
    temporaries stay small at any N."""
    points = np.asarray(cloud.points, dtype=float)
    neighbors = knn_indices(points, K, query_idx)
    query = np.arange(points.shape[0]) if query_idx is None else query_idx
    Q, n = len(query), points.shape[1]
    frames = np.empty((Q, n, d))
    degenerate = np.empty(Q, dtype=bool)
    fallback = np.zeros(Q, dtype=bool)
    for rows in row_blocks(Q, n * K, FRAME_BLOCK_BYTES):
        frames[rows], degenerate[rows], fallback[rows] = _fit_block(
            points, neighbors[rows], query[rows], K, d, second_order)
    if np.any(degenerate):
        warnings.warn(
            f"{int(degenerate.sum())} neighborhoods span fewer than d={d} "
            "directions; their frames are flagged degenerate",
            RuntimeWarning)
    if np.any(fallback):
        warnings.warn(
            f"quadratic fit rank-deficient at {int(fallback.sum())} points; "
            "first-order frames kept there", RuntimeWarning)
    return frames, degenerate, fallback


def first_order_svd(cloud, K=None, d=None, query_idx=None):
    """First-order local-SVD tangent frame at every point.

    Per point: the n x K matrix of neighbor differences is decomposed and
    the leading d left singular vectors are the frame estimate. K goes
    through neighbor_count (None means default_neighbor_count(d)), d
    defaults to the manifold's dimension.
    """
    d = cloud.spec.d if d is None else d
    K = neighbor_count(K, d, second_order=False)
    frames, degenerate, _ = _local_svd(cloud, K, d, query_idx, False)
    return ProjectionField(frames=frames, source="first_order",
                           K_used=K, degenerate=degenerate)


def second_order_svd(cloud, K=None, d=None, query_idx=None):
    """Curvature-corrected tangent frame estimate.

    Steps per point: first-order tangent basis; neighbor differences
    projected onto it (rho); least-squares fit of the quadratic form A y = D
    with A holding squares and doubled cross-products of rho; SVD of the
    corrected differences 2D - (A Y)^T. K and d default as in
    first_order_svd.
    """
    d = cloud.spec.d if d is None else d
    K = neighbor_count(K, d, second_order=True)
    frames, degenerate, fallback = _local_svd(cloud, K, d, query_idx, True)
    return ProjectionField(frames=frames, source="second_order", K_used=K,
                           degenerate=degenerate, fallback=fallback)


def projection_diagnostics(est, truth):
    """Frobenius error of the projectors of est vs truth per point plus max
    and mean; the projectors do not depend on the choice of frame."""
    if est.frames.shape != truth.frames.shape:
        raise ValueError("projection fields have mismatched shapes")
    per_point = np.linalg.norm(est.mats - truth.mats, axis=(1, 2))
    return {"max_frob": float(per_point.max()),
            "mean_frob": float(per_point.mean()),
            "per_point": per_point}
