"""Radial kernels and the interpolant they define on a point cloud.

The interpolation matrix Phi of a positive-definite radial kernel on
scattered manifold samples is routinely near-singular (flat kernels,
near-duplicate points), so it is factored as a truncated spectral
pseudo-inverse Phi^+ = U diag(1/w) U^T with U the N x rank_L retained
eigenvectors; Phi lives only while build_system factors it, and it is the
only N x N matrix ever formed. derivative_blocks differentiates the
interpolant along given directions at the nodes, so every operator built on
it factors through U^T and has rank at most rank_L per field component; it
takes the kernel derivatives a block of rows at a time (row_blocks), as
density.kde_density takes its kernel sums. It serves both consumers of the
derivatives: derivative_matrices gathers its blocks into whole N x rank_L
factors for the NRBF operators and the covariant derivative, and every
SRBF form is summed over them without ever holding a whole factor.

Every distance of the package comes from one formula, squared_distances:
the Gram form |x|^2 + |y|^2 - 2 x.y, one matrix product on coordinates
centred at the mean of the cloud, on numpy alone. Its rounding error is a
few eps times the squared radius of the cloud about that mean, not eps
times |x - y|^2, so a distance near zero is known only to about sqrt(eps)
times that radius. The kernels are flat there: on the benchmark studies the
spectra agree with those of a coordinate-wise distance (scipy's cdist) to
5e-10 of the largest eigenvalue. derivative_blocks forms its distances
and its brackets t.(x_j - x_k) on the points centred at their mean, so a
sphere cloud moved by 1e6 keeps its leading spectra to 2e-12 of the
largest value (3e-8 with brackets on raw coordinates).

Every dense factorisation of the package goes through numpy.linalg, whose
OpenBLAS also does the matmuls: scipy.linalg bundles a second OpenBLAS,
whose idle thread pool spins against the busy one and slows both down.
"""

import numbers
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

# Bytes of one row block of an N x N kernel stage that is streamed: a few
# such blocks stay far below the eigendecomposition of Phi, and a block
# still has over a hundred rows at N = 2000 for the matrix products.
ROW_BLOCK_BYTES = 2 ** 21
KERNELS = ("gaussian", "inverse_quadratic", "matern")


def row_blocks(N, width=None, block_bytes=None):
    """Slices covering range(N) in order, each a block of rows of an N x
    width float64 stage (width N by default) that takes at most block_bytes
    (ROW_BLOCK_BYTES, read at the call, by default; at least one row)."""
    if block_bytes is None:
        block_bytes = ROW_BLOCK_BYTES
    step = max(1, block_bytes // (8 * (N if width is None else width)))
    for lo in range(0, N, step):
        yield slice(lo, min(lo + step, N))


@dataclass(frozen=True)
class KernelModel:
    """Radial kernel family with shape parameter and pseudo-inverse cutoff."""

    family: str        # one of KERNELS (matern: nu = 3/2)
    s: float
    pinv_tol: float = 1e-8

    def __post_init__(self):
        if self.family not in KERNELS:
            raise ValueError(f"unknown kernel family {self.family!r}")
        for key in ("s", "pinv_tol"):    # an API value reads as a file's
            object.__setattr__(self, key, config_number(f"kernel {key}",
                                                        getattr(self, key)))
        if not 0 < self.s < np.inf:
            raise ValueError("shape parameter s must be positive and finite")
        if not 1e-12 <= self.pinv_tol <= 1e-2:
            raise ValueError("pinv_tol must lie in [1e-12, 1e-2]")

    def to_dict(self):
        return {"family": self.family, "s": self.s, "pinv_tol": self.pinv_tol}

    @staticmethod
    def from_dict(cfg):
        check_config_keys(KernelModel, cfg, "kernel")
        return KernelModel(**cfg)


def check_config_keys(cls, cfg, block):
    """Refuse a block cfg of the dataclass cls with unknown or missing keys."""
    unknown = set(cfg) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {block} keys {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if f.default is MISSING
               and f.default_factory is MISSING} - set(cfg)
    if missing:
        raise ValueError(f"missing {block} keys {sorted(missing)}")


def config_number(name, value, integral=False):
    """The value of config key name, an int where integral, else a float.
    A bool is not a number, nor is a string or a float for an integer."""
    kind, noun = ((numbers.Integral, "an integer") if integral
                  else (numbers.Real, "a number"))
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {noun}")
    return int(value) if integral else float(value)


def squared_distances(X, Y):
    """|x - y|^2 for every row x of X and row y of Y, shape (len(X), len(Y)).

    Formed as |x|^2 + |y|^2 - 2 x.y on coordinates centred at the mean of
    Y, so a cloud far from the origin loses no digits to its offset, and
    clipped at 0. The coordinates are held as n rows of points, since
    numpy's reductions and broadcasts are slow across a short axis of n = 3
    columns, and a search that calls this on many small blocks of X pays
    them every time.
    """
    Xt = np.array(np.asarray(X, dtype=float).T, order="C")
    Yt = np.array(np.asarray(Y, dtype=float).T, order="C")
    mean = Yt.mean(axis=1, keepdims=True)
    Yt -= mean
    Xt -= mean
    d2 = Xt.T @ Yt
    d2 *= -2.0
    d2 += np.einsum("mj,mj->j", Xt, Xt)[:, None]
    d2 += np.einsum("mk,mk->k", Yt, Yt)
    return np.maximum(d2, 0.0, out=d2)


def kernel_eval(model, r):
    """phi_s(r): gaussian e^{-(sr)^2}, inverse quadratic 1 / (1 + (sr)^2),
    Matern(3/2) (1 + sr) e^{-sr}. Evaluated in place on one copy of r (the
    Matern factor e^{-sr} takes a second buffer)."""
    out = np.array(r, dtype=float)
    out *= model.s
    if model.family == "matern":
        decay = np.negative(out, out=np.empty_like(out))
        np.exp(decay, out=decay)
        out += 1.0
        out *= decay
        return out
    np.square(out, out=out)
    if model.family == "gaussian":
        np.negative(out, out=out)
        return np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def kernel_deriv_over_r(model, r):
    """phi_s'(r) / r, continuous through r = 0.

    All three families admit a closed form with no removable singularity:
    gaussian -2 s^2 e^{-(sr)^2}; inverse quadratic -2 s^2 / (1+(sr)^2)^2;
    Matern(3/2) -s^2 e^{-sr}. Evaluated in place on one copy of r.
    """
    s2 = model.s * model.s
    out = np.array(r, dtype=float)
    out *= model.s
    if model.family != "matern":
        np.square(out, out=out)
    if model.family == "inverse_quadratic":
        out += 1.0
        np.square(out, out=out)
        return np.divide(-2.0 * s2, out, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out *= -2.0 * s2 if model.family == "gaussian" else -s2
    return out


@dataclass
class InterpolationSystem:
    """The interpolant on points: kernel model and truncated factorization.

    Phi is symmetric, so its singular value decomposition coincides with the
    symmetric eigendecomposition up to signs: Phi = V diag(w) V^T with
    sigma = |w|. Components with sigma < pinv_tol * sigma_max are truncated;
    U and w hold the rank_L retained ones, by decreasing sigma.
    """

    points: np.ndarray
    model: KernelModel
    U: np.ndarray = field(repr=False)   # retained eigenvectors (N, rank_L)
    w: np.ndarray = field(repr=False)   # retained signed eigenvalues
    rank_L: int

    @property
    def N(self):
        return self.points.shape[0]

    @property
    def sigma(self):
        return np.abs(self.w)


def build_system(cloud, model):
    """Assemble Phi_{jk} = phi_s(|x_j - x_k|) and factor it."""
    points = np.asarray(cloud.points, dtype=float)
    if points.shape[0] < 2:
        raise ValueError("need at least two points")
    w, V = np.linalg.eigh(
        kernel_eval(model, np.sqrt(squared_distances(points, points))))
    sigma = np.abs(w)
    keep = sigma >= model.pinv_tol * sigma.max()
    # one gather, so V is never copied twice
    idx = np.flatnonzero(keep)[np.argsort(sigma[keep])[::-1]]
    return InterpolationSystem(points=points, model=model, U=V[:, idx],
                               w=w[idx], rank_L=len(idx))


def derivative_blocks(system, directions, out=None):
    """Row blocks of the factors G_a of the matrices D_a = G_a U^T, where
    (D_a f)_j is the derivative of the interpolant of f at x_j along
    directions[j, :, a]; directions has shape (N, n, k).

    D_a = (sum_m t_m(x_j) (X^m(x_j) - X^m(x_k)) phi'(r_jk)/r_jk) Phi^+ with
    t = directions[:, :, a]; the diagonal takes the analytic r -> 0 limit,
    and the points are centred at their mean (see the module notes). Yields
    (rows, block) for one slice of rows j at a time, in order, block[a]
    holding G_a[rows]. With out, a (k, N, rank_L) array, block is out[:, rows];
    without, it is a C-contiguous (k, rows, rank_L) buffer that the next
    block overwrites. No N x N matrix is allocated.
    """
    points = system.points - system.points.mean(axis=0)
    coef = system.U / system.w[None, :]
    k, r = directions.shape[2], coef.shape[1]
    buf = None
    for rows in row_blocks(len(points)):
        if out is not None:
            block = out[:, rows]
        else:
            size = k * (rows.stop - rows.start) * r
            if buf is None:
                buf = np.empty(size)
            block = buf[:size].reshape(k, -1, r)
        w = kernel_deriv_over_r(system.model, np.sqrt(
            squared_distances(points[rows], points)))
        for a in range(k):
            t = directions[rows, :, a]
            along = t @ points.T
            np.subtract(np.einsum("jm,jm->j", t, points[rows])[:, None],
                        along, out=along)
            along *= w
            np.matmul(along, coef, out=block[a])
        del w, along               # before the caller's work on the block
        yield rows, block


def derivative_matrices(system, directions):
    """The factors G_a (N, rank_L) of derivative_blocks, whole: k views of
    one (k, N, rank_L) array."""
    G = np.empty((directions.shape[2],) + system.U.shape)
    for _rows, _block in derivative_blocks(system, directions, G):
        pass
    return list(G)


def blockwise(M, X):
    """(I_m kron M) X: M applied to each of the m row blocks of X."""
    m, c = X.shape[0] // M.shape[1], X.shape[1]
    return np.matmul(M, X.reshape(m, M.shape[1], c)).reshape(
        m * M.shape[0], c)
