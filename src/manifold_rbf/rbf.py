"""Radial kernels, interpolation-matrix assembly, and pseudo-inverse solves.

The interpolation matrix Phi of a positive-definite radial kernel on scattered
manifold samples is routinely near-singular (flat kernels, near-duplicate
points), so every solve goes through a truncated spectral pseudo-inverse with
a relative cutoff instead of direct inversion. The pseudo-inverse is kept in
its factored form Phi^+ = U diag(1/w) U^T with U the N x rank_L retained
eigenvectors; it is never formed densely, so every operator built on it
factors through U^T and has rank at most rank_L per field component.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist


@dataclass(frozen=True)
class KernelModel:
    """Radial kernel family with shape parameter and pseudo-inverse cutoff."""

    family: str        # gaussian | inverse_quadratic | matern (nu = 3/2)
    s: float
    pinv_tol: float = 1e-8

    def __post_init__(self):
        if self.family not in ("gaussian", "inverse_quadratic", "matern"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not self.s > 0:
            raise ValueError("shape parameter s must be positive")
        if not 1e-12 <= self.pinv_tol <= 1e-2:
            raise ValueError("pinv_tol must lie in [1e-12, 1e-2]")

    def to_dict(self):
        return {"family": self.family, "s": self.s, "pinv_tol": self.pinv_tol}

    @staticmethod
    def from_dict(cfg):
        return KernelModel(family=cfg["family"], s=float(cfg["s"]),
                           pinv_tol=float(cfg.get("pinv_tol", 1e-8)))


def kernel_eval(model, r):
    r = np.asarray(r, dtype=float)
    sr = model.s * r
    if model.family == "gaussian":
        return np.exp(-sr * sr)
    if model.family == "inverse_quadratic":
        return 1.0 / (1.0 + sr * sr)
    return (1.0 + sr) * np.exp(-sr)


def kernel_deriv_over_r(model, r):
    """phi_s'(r) / r, continuous through r = 0.

    All three families admit a closed form with no removable singularity:
    gaussian -2 s^2 e^{-(sr)^2}; inverse quadratic -2 s^2 / (1+(sr)^2)^2;
    Matern(3/2) -s^2 e^{-sr}.
    """
    r = np.asarray(r, dtype=float)
    s2 = model.s * model.s
    sr = model.s * r
    if model.family == "gaussian":
        return -2.0 * s2 * np.exp(-sr * sr)
    if model.family == "inverse_quadratic":
        return -2.0 * s2 / (1.0 + sr * sr) ** 2
    return -s2 * np.exp(-sr)


@dataclass
class InterpolationSystem:
    """Kernel matrix Phi with its truncated spectral factorization.

    Phi is symmetric, so its singular value decomposition coincides with the
    symmetric eigendecomposition up to signs: Phi = V diag(w) V^T with
    sigma = |w|. Components with sigma < pinv_tol * sigma_max are truncated;
    rank_L counts the retained ones.
    """

    Phi: np.ndarray
    cloud: object
    model: KernelModel
    U: np.ndarray = field(default=None, repr=False)      # retained vectors
    sigma: np.ndarray = field(default=None, repr=False)  # retained |w|
    _w: np.ndarray = field(default=None, repr=False)     # retained signed w
    rank_L: int = 0

    @property
    def N(self):
        return self.Phi.shape[0]


def build_system(cloud, model):
    """Assemble Phi_{jk} = phi_s(|x_j - x_k|) and factor it."""
    points = np.asarray(cloud.points, dtype=float)
    if points.shape[0] < 2:
        raise ValueError("need at least two points")
    r = cdist(points, points)
    r = 0.5 * (r + r.T)           # exact symmetry regardless of backend
    Phi = kernel_eval(model, r)
    w, V = scipy.linalg.eigh(Phi)
    sigma = np.abs(w)
    keep = sigma >= model.pinv_tol * sigma.max()
    order = np.argsort(sigma[keep])[::-1]
    U = V[:, keep][:, order]
    return InterpolationSystem(Phi=Phi, cloud=cloud, model=model,
                               U=U, sigma=sigma[keep][order],
                               _w=w[keep][order], rank_L=int(keep.sum()))


def blockwise(M, X):
    """(I_m kron M) X: M applied to each of the m row blocks of X."""
    m, c = X.shape[0] // M.shape[1], X.shape[1]
    return np.matmul(M, X.reshape(m, M.shape[1], c)).reshape(
        m * M.shape[0], c)


def interpolate_eval(system, coeffs, query):
    """Evaluate sum_k c_k phi_s(|query - x_k|) at one or more query points."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[0] != system.N:
        raise ValueError("coefficient length does not match the system size")
    q = np.atleast_2d(np.asarray(query, dtype=float))
    vals = kernel_eval(system.model, cdist(q, system.cloud.points)) @ coeffs
    return vals[0] if np.ndim(query) == 1 else vals
