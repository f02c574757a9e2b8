"""Sampling-density estimation for the symmetric (weak-form) operators.

When the true sampling density is unknown it is estimated with a Gaussian
product KDE in the ambient coordinates, bandwidth from Silverman's rule.
The ambient-space estimate is a deliberately crude stand-in for the density
on the manifold; experiments can also run with the analytic density or a
uniform one. The kernel sums take their squared distances from
rbf.squared_distances, as every kernel stage of the package does.
"""

import math

import numpy as np

from .rbf import row_blocks, squared_distances


def silverman_bandwidth(cloud):
    """h = sigma_hat * (4 / ((n+2) N))^(1/(n+4)) with ambient dimension n.

    sigma_hat is the per-coordinate sample standard deviation (ddof=1)
    averaged over the n coordinates.
    """
    x = np.asarray(cloud.points, dtype=float)
    N, n = x.shape
    if N < 2:
        raise ValueError("need at least two points")
    sigma = float(np.mean(np.std(x, axis=0, ddof=1)))
    if sigma <= 0:
        raise ValueError("zero-variance cloud, bandwidth undefined")
    return sigma * (4.0 / ((n + 2) * N)) ** (1.0 / (n + 4))


def kde_density(cloud, h=None):
    """Gaussian KDE q at the sample points themselves (self-pair included),
    bandwidth h or silverman_bandwidth(cloud).

    The squared distances (rbf.squared_distances) are formed for one block
    of rows at a time (rbf.row_blocks) and turned into kernel values in
    place, so no N x N matrix is allocated and a block holds one temporary.
    """
    x = np.asarray(cloud.points, dtype=float)
    N, n = x.shape
    if h is None:
        h = silverman_bandwidth(cloud)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    norm = 1.0 / (N * (h * math.sqrt(2.0 * math.pi)) ** n)
    q = np.empty(N)
    for rows in row_blocks(N):
        d2 = squared_distances(x[rows], x)
        d2 /= -2.0 * h * h
        q[rows] = norm * np.sum(np.exp(d2, out=d2), axis=1)
        del d2                     # before the next block's product
    return q
