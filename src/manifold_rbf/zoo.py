"""Analytic test manifolds embedded in R^n.

Provides samplers (random in intrinsic coordinates, or lattice grids), exact
tangential projection matrices from the embedding Jacobian, closed-form or
semi-analytic Laplacian eigen-truth, and the sampling density of
intrinsic-uniform draws with respect to the Riemannian volume measure.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .tangent import ProjectionField

TWO_PI = 2.0 * math.pi


def counter_rng(seed):
    # counter-based stream so identical seeds reproduce bit-identical samples
    # across platforms and run orders
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class ManifoldSpec:
    """One manifold from the built-in zoo.

    kind is one of 'ellipse', 'torus', 'general_torus', 'flat_torus',
    'sphere'; d and n are the intrinsic and ambient dimensions. `a` is the
    ellipse semi-axis or the torus radius ratio, `m` the number of harmonics
    per intrinsic dimension of the flat torus.
    """

    kind: str
    d: int
    n: int
    a: float = 0.0
    m: int = 0

    def __post_init__(self):
        if self.kind not in ("ellipse", "torus", "general_torus",
                             "flat_torus", "sphere"):
            raise ValueError(f"unknown manifold kind {self.kind!r}")
        if self.d > self.n:
            raise ValueError("intrinsic dimension exceeds ambient dimension")
        if self.kind == "ellipse":
            if (self.d, self.n) != (1, 2) or self.a <= 0:
                raise ValueError("ellipse requires d=1, n=2, a > 0")
        if self.kind in ("torus", "general_torus"):
            if self.a <= 1:
                raise ValueError("torus embeddings require a > 1")
            if self.d != 2 or self.n < 3 or self.n % 2 == 0:
                raise ValueError("torus requires d=2 and odd ambient n >= 3")
        if self.kind == "flat_torus":
            if self.m < 1 or self.n != 2 * self.m * self.d:
                raise ValueError("flat torus requires n = 2*m*d with m >= 1")
        if self.kind == "sphere" and (self.d, self.n) != (2, 3):
            raise ValueError("sphere is the unit 2-sphere in R^3")

    def to_dict(self):
        out = {"kind": self.kind, "d": self.d, "n": self.n}
        if self.kind in ("ellipse", "torus", "general_torus"):
            out["a"] = self.a
        if self.kind == "flat_torus":
            out["m"] = self.m
        return out

    @staticmethod
    def from_dict(cfg):
        kind = cfg["kind"]
        if kind == "ellipse":
            return Ellipse(cfg["a"])
        if kind == "torus":
            return Torus(cfg["a"])
        if kind == "general_torus":
            return GeneralTorus(cfg["a"], cfg.get("n", 21))
        if kind == "flat_torus":
            return FlatTorus(cfg["d"], cfg.get("m", 1))
        if kind == "sphere":
            return Sphere()
        raise ValueError(f"unknown manifold kind {kind!r}")


def Ellipse(a):
    return ManifoldSpec("ellipse", d=1, n=2, a=float(a))


def Torus(a):
    return ManifoldSpec("torus", d=2, n=3, a=float(a))


def GeneralTorus(a, n_ambient=21):
    return ManifoldSpec("general_torus", d=2, n=int(n_ambient), a=float(a))


def FlatTorus(d, m=1):
    return ManifoldSpec("flat_torus", d=int(d), n=2 * int(m) * int(d),
                        m=int(m))


def Sphere():
    return ManifoldSpec("sphere", d=2, n=3)


def zoo_default_manifolds():
    """One canonical instance of every kind."""
    return [Ellipse(2.0), Torus(2.0), GeneralTorus(2.0, 21),
            FlatTorus(2, 1), Sphere()]


# -- torus helpers -----------------------------------------------------------

def _torus_constants(spec):
    # c harmonic pairs; b = sum 1/i^2 scales the vertical coordinate so the
    # metric is diag(b, c(a+cos th)^2)
    c = (spec.n - 1) // 2
    b = sum(1.0 / (i * i) for i in range(1, c + 1))
    return b, c


def intrinsic_box(spec):
    """Per-dimension (lo, hi) of the intrinsic parameter box."""
    if spec.kind == "ellipse":
        return [(0.0, TWO_PI)]
    if spec.kind in ("torus", "general_torus"):
        return [(0.0, TWO_PI), (0.0, TWO_PI)]
    if spec.kind == "flat_torus":
        return [(0.0, TWO_PI)] * spec.d
    return [(0.0, math.pi), (0.0, TWO_PI)]


def embed(spec, theta):
    """Map intrinsic coordinates (N, d) to ambient points (N, n)."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    N = theta.shape[0]
    if spec.kind == "ellipse":
        t = theta[:, 0]
        return np.column_stack([np.cos(t), spec.a * np.sin(t)])
    if spec.kind in ("torus", "general_torus"):
        b, c = _torus_constants(spec)
        th, ph = theta[:, 0], theta[:, 1]
        x = np.empty((N, spec.n))
        ring = spec.a + np.cos(th)
        for i in range(1, c + 1):
            x[:, 2 * i - 2] = ring * np.cos(i * ph) / i
            x[:, 2 * i - 1] = ring * np.sin(i * ph) / i
        x[:, -1] = math.sqrt(b) * np.sin(th)
        return x
    if spec.kind == "flat_torus":
        scale = 1.0 / math.sqrt(sum(j * j for j in range(1, spec.m + 1)))
        x = np.empty((N, spec.n))
        for i in range(spec.d):
            for j in range(1, spec.m + 1):
                col = 2 * spec.m * i + 2 * (j - 1)
                x[:, col] = scale * np.cos(j * theta[:, i])
                x[:, col + 1] = scale * np.sin(j * theta[:, i])
        return x
    th, ph = theta[:, 0], theta[:, 1]
    return np.column_stack([np.sin(th) * np.cos(ph),
                            np.sin(th) * np.sin(ph),
                            np.cos(th)])


def embedding_jacobian(spec, theta):
    """Jacobian of the embedding, shape (N, n, d)."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    N = theta.shape[0]
    J = np.zeros((N, spec.n, spec.d))
    if spec.kind == "ellipse":
        t = theta[:, 0]
        J[:, 0, 0] = -np.sin(t)
        J[:, 1, 0] = spec.a * np.cos(t)
        return J
    if spec.kind in ("torus", "general_torus"):
        b, c = _torus_constants(spec)
        th, ph = theta[:, 0], theta[:, 1]
        ring = spec.a + np.cos(th)
        for i in range(1, c + 1):
            J[:, 2 * i - 2, 0] = -np.sin(th) * np.cos(i * ph) / i
            J[:, 2 * i - 1, 0] = -np.sin(th) * np.sin(i * ph) / i
            J[:, 2 * i - 2, 1] = -ring * np.sin(i * ph)
            J[:, 2 * i - 1, 1] = ring * np.cos(i * ph)
        J[:, -1, 0] = math.sqrt(b) * np.cos(th)
        return J
    if spec.kind == "flat_torus":
        scale = 1.0 / math.sqrt(sum(j * j for j in range(1, spec.m + 1)))
        for i in range(spec.d):
            for j in range(1, spec.m + 1):
                col = 2 * spec.m * i + 2 * (j - 1)
                J[:, col, i] = -scale * j * np.sin(j * theta[:, i])
                J[:, col + 1, i] = scale * j * np.cos(j * theta[:, i])
        return J
    th, ph = theta[:, 0], theta[:, 1]
    J[:, 0, 0] = np.cos(th) * np.cos(ph)
    J[:, 1, 0] = np.cos(th) * np.sin(ph)
    J[:, 2, 0] = -np.sin(th)
    J[:, 0, 1] = -np.sin(th) * np.sin(ph)
    J[:, 1, 1] = np.sin(th) * np.cos(ph)
    return J


def metric_sqrt_det(spec, theta):
    """sqrt(det g) at intrinsic coordinates, shape (N,)."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if spec.kind == "ellipse":
        t = theta[:, 0]
        return np.sqrt(np.sin(t) ** 2 + spec.a ** 2 * np.cos(t) ** 2)
    if spec.kind in ("torus", "general_torus"):
        b, c = _torus_constants(spec)
        return math.sqrt(b * c) * (spec.a + np.cos(theta[:, 0]))
    if spec.kind == "flat_torus":
        return np.ones(theta.shape[0])
    return np.sin(theta[:, 0])


def volume(spec):
    """Riemannian volume of the manifold."""
    if spec.kind == "ellipse":
        # perimeter; no elementary closed form, fine fixed quadrature
        t = np.linspace(0.0, TWO_PI, 20001)[:-1]
        return float(np.mean(metric_sqrt_det(spec, t[:, None])) * TWO_PI)
    if spec.kind in ("torus", "general_torus"):
        b, c = _torus_constants(spec)
        return math.sqrt(b * c) * spec.a * TWO_PI ** 2
    if spec.kind == "flat_torus":
        return TWO_PI ** spec.d
    return 4.0 * math.pi


@dataclass
class PointCloud:
    """Sampled points: ambient coordinates plus the generating intrinsic ones."""

    points: np.ndarray            # (N, n)
    intrinsic: np.ndarray | None  # (N, d) or None for raw external clouds
    spec: ManifoldSpec | None
    seed: int = 0
    mode: str = "random_intrinsic"

    @property
    def N(self):
        return self.points.shape[0]

    @property
    def n(self):
        return self.points.shape[1]


def _sqrt_det_sup(spec):
    """Upper bound of sqrt(det g) over the intrinsic box (rejection envelope)."""
    if spec.kind == "ellipse":
        return max(spec.a, 1.0)
    if spec.kind in ("torus", "general_torus"):
        b, c = _torus_constants(spec)
        return np.sqrt(b * c) * (spec.a + 1.0)
    if spec.kind == "flat_torus":
        return 1.0
    return 1.0  # sphere: sqrt(det g) = sin(theta) <= 1


def sample_manifold(spec, N, seed=0, mode="random_intrinsic"):
    """Draw N points on the manifold.

    random_intrinsic: uniform draws on the intrinsic parameter box.
    random_area: uniform with respect to the Riemannian volume (rejection
    against sqrt(det g); on flat manifolds this coincides with
    random_intrinsic).
    grid: equispaced intrinsic lattice; N must be a perfect d-th power. On
    the sphere the polar coordinate is offset by half a cell so the lattice
    avoids the coordinate-singular poles.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    box = intrinsic_box(spec)
    if mode == "random_intrinsic":
        rng = counter_rng(seed)
        u = rng.random((N, spec.d))
        theta = np.column_stack([lo + (hi - lo) * u[:, i]
                                 for i, (lo, hi) in enumerate(box)])
    elif mode == "random_area":
        rng = counter_rng(seed)
        sup = _sqrt_det_sup(spec)
        kept = []
        have = 0
        while have < N:
            u = rng.random((2 * N, spec.d))
            cand = np.column_stack([lo + (hi - lo) * u[:, i]
                                    for i, (lo, hi) in enumerate(box)])
            accept = rng.random(2 * N) * sup <= metric_sqrt_det(spec, cand)
            kept.append(cand[accept])
            have += int(np.sum(accept))
        theta = np.vstack(kept)[:N]
    elif mode == "grid":
        k = round(N ** (1.0 / spec.d))
        if k ** spec.d != N:
            raise ValueError(
                f"grid mode needs N to be a perfect {spec.d}-th power; "
                f"got N={N} (nearest lattice is {k ** spec.d})")
        axes = []
        for i, (lo, hi) in enumerate(box):
            step = (hi - lo) / k
            offset = 0.5 * step if (spec.kind == "sphere" and i == 0) else 0.0
            axes.append(lo + offset + step * np.arange(k))
        mesh = np.meshgrid(*axes, indexing="ij")
        theta = np.column_stack([mm.reshape(-1) for mm in mesh])
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    return PointCloud(points=embed(spec, theta), intrinsic=theta, spec=spec,
                      seed=seed, mode=mode)


def analytic_projection(cloud):
    """Exact tangential projectors P = J (J^T J)^{-1} J^T at every point."""
    if cloud.intrinsic is None:
        raise ValueError("analytic projection needs intrinsic coordinates")
    spec = cloud.spec
    J = embedding_jacobian(spec, cloud.intrinsic)
    JtJ = np.einsum("kpi,kpj->kij", J, J)
    det = np.linalg.det(JtJ)
    if np.any(det <= 1e-300):
        bad = int(np.argmin(det))
        raise ValueError(
            f"degenerate embedding Jacobian at point {bad} "
            f"(intrinsic {cloud.intrinsic[bad]}); analytic projector undefined")
    P = np.einsum("kpi,kij,kqj->kpq", J, np.linalg.inv(JtJ), J)
    P = 0.5 * (P + np.transpose(P, (0, 2, 1)))
    return ProjectionField(mats=P, source="analytic", K_used=0)


def sampling_density(spec, cloud):
    """True density of intrinsic-uniform draws w.r.t. the volume measure.

    q(theta) = 1 / (|box| * sqrt(det g(theta))), which integrates to one
    against dVol.
    """
    if cloud.intrinsic is None:
        raise ValueError("sampling density needs intrinsic coordinates")
    box = intrinsic_box(spec)
    box_vol = 1.0
    for lo, hi in box:
        box_vol *= (hi - lo)
    sq = metric_sqrt_det(spec, cloud.intrinsic)
    if np.any(sq <= 0):
        raise ValueError("metric degenerate at a sample point")
    return 1.0 / (box_vol * sq)


@dataclass
class EigenTruth:
    """Reference spectrum: ascending (eigenvalue, multiplicity) pairs plus
    eigenfunction evaluators aligned with the expanded mode order.

    Scalar evaluators map ambient points (Q, n) to (Q,); vector evaluators
    map to (Q, n).
    """

    values: list
    evaluators: list
    kind: str = "scalar"

    def expanded(self, count):
        out = []
        for lam, mult in self.values:
            for _ in range(mult):
                out.append(lam)
                if len(out) == count:
                    return np.array(out)
        raise ValueError(f"truth holds only {len(out)} modes, need {count}")

    def evaluate_basis(self, points, count):
        """Stack the first `count` eigenfunction evaluations as columns."""
        if self.evaluators is None or len(self.evaluators) < count:
            have = 0 if self.evaluators is None else len(self.evaluators)
            raise ValueError(f"only {have} evaluators available, need {count}")
        cols = [np.asarray(f(points)) for f in self.evaluators[:count]]
        return np.stack(cols, axis=-1) if self.kind == "scalar" else cols


# -- flat torus spectrum ------------------------------------------------------

def _flat_torus_lattice(d, count):
    """First `count` distinct values of sum(k_i^2) with exact multiplicities.

    Enumerates |k_i| <= R and keeps only the complete shells (lambda <= R^2),
    growing R until enough shells exist.
    """
    R = 1
    while True:
        rng = range(-R, R + 1)
        counts = {}
        reps = {}
        for k in np.stack(np.meshgrid(*([list(rng)] * d),
                                      indexing="ij"), axis=-1).reshape(-1, d):
            lam = int(np.dot(k, k))
            if lam > R * R:
                continue
            counts[lam] = counts.get(lam, 0) + 1
            # canonical half-lattice: first nonzero component positive
            nz = next((v for v in k if v != 0), 0)
            if nz > 0 or lam == 0:
                reps.setdefault(lam, []).append(tuple(int(v) for v in k))
        lams = sorted(counts)
        if len(lams) >= count:
            lams = lams[:count]
            return [(float(l), counts[l]) for l in lams], {
                l: reps[l] for l in lams}
        R += 1


def _flat_torus_angles(spec, points):
    # invert the embedding through the first harmonic pair of every block
    t = np.empty((points.shape[0], spec.d))
    for i in range(spec.d):
        col = 2 * spec.m * i
        t[:, i] = np.arctan2(points[:, col + 1], points[:, col])
    return t


def _flat_torus_truth(spec, count):
    values, reps = _flat_torus_lattice(spec.d, count)
    evaluators = []
    for lam, _mult in values:
        if lam == 0.0:
            evaluators.append(
                lambda x, s=spec: np.ones(np.atleast_2d(x).shape[0]))
            continue
        for k in reps[int(lam)]:
            kv = np.array(k, dtype=float)
            def _cos(x, kv=kv, s=spec):
                return np.cos(_flat_torus_angles(s, np.atleast_2d(x)) @ kv)
            def _sin(x, kv=kv, s=spec):
                return np.sin(_flat_torus_angles(s, np.atleast_2d(x)) @ kv)
            evaluators.extend([_cos, _sin])
    return EigenTruth(values=values, evaluators=evaluators, kind="scalar")


# -- sphere spectrum ----------------------------------------------------------

# independent symmetric index sets for the degree-2 and degree-3 Cartesian
# harmonics on S^2 (5 and 7 of them)
_SPHERE_L2_PAIRS = [(0, 1), (0, 2), (1, 2), (0, 0), (1, 1)]
_SPHERE_L3_TRIPLES = [(0, 0, 1), (0, 0, 2), (0, 1, 1), (1, 1, 2),
                      (0, 2, 2), (1, 2, 2), (0, 1, 2)]


def _sphere_poly_l2(p, q):
    def psi(x):
        x = np.atleast_2d(x)
        r2 = np.sum(x * x, axis=1)
        return 3.0 * x[:, p] * x[:, q] - (r2 if p == q else 0.0)

    def grad(x):
        x = np.atleast_2d(x)
        g = np.zeros_like(x)
        g[:, p] += 3.0 * x[:, q]
        g[:, q] += 3.0 * x[:, p]
        if p == q:
            g -= 2.0 * x
        return g

    return psi, grad


def _sphere_poly_l3(p, q, r):
    def psi(x):
        x = np.atleast_2d(x)
        r2 = np.sum(x * x, axis=1)
        val = 15.0 * x[:, p] * x[:, q] * x[:, r]
        if p == q:
            val -= 3.0 * r2 * x[:, r]
        if q == r:
            val -= 3.0 * r2 * x[:, p]
        if r == p:
            val -= 3.0 * r2 * x[:, q]
        return val

    def grad(x):
        x = np.atleast_2d(x)
        r2 = np.sum(x * x, axis=1)
        g = np.zeros_like(x)
        g[:, p] += 15.0 * x[:, q] * x[:, r]
        g[:, q] += 15.0 * x[:, p] * x[:, r]
        g[:, r] += 15.0 * x[:, p] * x[:, q]
        if p == q:
            g -= 6.0 * x * x[:, [r]]
            g[:, r] -= 3.0 * r2
        if q == r:
            g -= 6.0 * x * x[:, [p]]
            g[:, p] -= 3.0 * r2
        if r == p:
            g -= 6.0 * x * x[:, [q]]
            g[:, q] -= 3.0 * r2
        return g

    return psi, grad


def _sphere_harmonic_families():
    """families[l] = list of (psi, grad_psi) for l = 1, 2, 3."""
    fam1 = []
    for p in range(3):
        def psi(x, p=p):
            return np.atleast_2d(x)[:, p]
        def grad(x, p=p):
            x = np.atleast_2d(x)
            g = np.zeros_like(x)
            g[:, p] = 1.0
            return g
        fam1.append((psi, grad))
    fam2 = [_sphere_poly_l2(p, q) for p, q in _SPHERE_L2_PAIRS]
    fam3 = [_sphere_poly_l3(*t) for t in _SPHERE_L3_TRIPLES]
    return {1: fam1, 2: fam2, 3: fam3}


def _sphere_scalar_truth(count):
    if count > 4:
        raise ValueError("sphere eigenfunction evaluators cover l <= 3 "
                         "(four distinct eigenvalues)")
    families = _sphere_harmonic_families()
    values = []
    evaluators = []
    for l in range(count):
        values.append((float(l * (l + 1)), 2 * l + 1))
        if l == 0:
            evaluators.append(lambda x: np.ones(np.atleast_2d(x).shape[0]))
        else:
            evaluators.extend(psi for psi, _g in families[l])
    return EigenTruth(values=values, evaluators=evaluators, kind="scalar")


def _curl_field(grad):
    def U(x):
        x = np.atleast_2d(x)
        return np.cross(x, grad(x))
    return U


def _proj_field(grad):
    def U(x):
        x = np.atleast_2d(x)
        g = grad(x)
        return g - np.sum(x * g, axis=1, keepdims=True) * x
    return U


def vector_eigen_truth(spec, which):
    """Sphere vector-Laplacian truth with tangential eigenfield evaluators.

    Eigenfields come in two families per degree l: the rotational form
    x × grad(psi) and the gradient form P grad(psi), psi ranging over the
    degree-l harmonics. Bochner eigenvalue l(l+1)-1 and Hodge eigenvalue
    l(l+1) share both families; the Lichnerowicz operator splits them
    (rotational l=1 fields generate isometries and sit in the nullspace).
    """
    if spec.kind != "sphere":
        raise ValueError("vector eigen-truth is available for the sphere only")
    families = _sphere_harmonic_families()
    curl = {l: [_curl_field(g) for _p, g in families[l]] for l in families}
    proj = {l: [_proj_field(g) for _p, g in families[l]] for l in families}
    if which == "Bochner":
        values = [(1.0, 6), (5.0, 10), (11.0, 14)]
        evaluators = (curl[1] + proj[1] + curl[2] + proj[2]
                      + curl[3] + proj[3])
    elif which == "Hodge":
        values = [(2.0, 6), (6.0, 10), (12.0, 14)]
        evaluators = (curl[1] + proj[1] + curl[2] + proj[2]
                      + curl[3] + proj[3])
    elif which == "Lichnerowicz":
        values = [(0.0, 3), (2.0, 3), (4.0, 5), (10.0, 12)]
        evaluators = curl[1] + proj[1] + curl[2] + (proj[2] + curl[3])
    else:
        raise ValueError(f"unknown vector Laplacian {which!r}")
    return EigenTruth(values=values, evaluators=evaluators, kind="vector")


# -- general torus: Sturm-Liouville reduction ---------------------------------

# Bisection tolerance of twice the underflow threshold: LAPACK's ?stebz then
# resolves each eigenvalue to full accuracy instead of eps * ||T||, which for
# the smallest nonzero modes at N_theta = 2048 is a relative 1e-10.
_BISECT_TOL = 2.0 * np.finfo(float).tiny


def _reflection_split_eigh(diag, off, k, upper=None):
    """Lowest k eigenpairs of a symmetric periodic tridiagonal matrix whose
    entries are even under the reflection j -> -j (mod N), N even; with
    `upper`, only those with eigenvalue <= upper.

    diag[j] is entry (j, j) and off[j] entry (j, j+1 mod N); evenness means
    diag[j] == diag[N-j] and off[j] == off[N-1-j]. The reflection commutes
    with the matrix, so it splits into an even block on j = 0..N/2, whose
    two end couplings gain a factor sqrt(2), and an odd block on
    j = 1..N/2-1. Each block is an ordinary tridiagonal problem.
    Eigenvectors come back orthonormal on the full grid, ascending.
    """
    N = diag.shape[0]
    half = N // 2
    e_even = off[:half].copy()
    e_even[[0, -1]] *= math.sqrt(2.0)
    blocks = ((diag[:half + 1], e_even, 1.0),
              (diag[1:half], off[1:half - 1], -1.0))
    inner = np.arange(1, half)
    lams, vecs = [], []
    for d, e, parity in blocks:
        if upper is None:
            select = {"select": "i", "select_range": (0, min(k, len(d)) - 1)}
        else:
            select = {"select": "v", "select_range": (-np.inf, upper)}
        lam, Y = scipy.linalg.eigh_tridiagonal(d, e, tol=_BISECT_TOL, **select)
        X = np.zeros((N, lam.shape[0]))
        interior = Y[1:half] if parity > 0 else Y
        X[inner] = interior / math.sqrt(2.0)
        X[N - inner] = parity * interior / math.sqrt(2.0)
        if parity > 0:
            X[[0, half]] = Y[[0, half]]
        lams.append(lam)
        vecs.append(X)
    lam = np.concatenate(lams)
    order = np.argsort(lam, kind="stable")[:k]
    return lam[order], np.hstack(vecs)[:, order]


def _sl_modes(spec, N_theta, count):
    """Grid and the `count` lowest (lambda, m, Theta) of the torus pencil,
    sorted by (lambda, m); see sturm_liouville_truth."""
    if spec.kind not in ("torus", "general_torus"):
        raise ValueError("Sturm-Liouville truth applies to torus kinds")
    if N_theta < 128:
        raise ValueError("N_theta must be at least 128")
    if N_theta % 2:
        raise ValueError("N_theta must be even so the grid holds theta = pi, "
                         "the mirror point of the reflection split")
    b, c = _torus_constants(spec)
    h = TWO_PI / N_theta
    th = h * np.arange(N_theta)
    w = spec.a + np.cos(th)
    w_half = spec.a + np.cos(th + 0.5 * h)     # w at j+1/2
    per_mode = min(count + 2, N_theta - 1)
    # fold the diagonal weight B = b w in: S A S with S = B^{-1/2}
    scale = 1.0 / np.sqrt(b * w)
    off = -w_half / h ** 2 * scale * np.roll(scale, -1)
    stiff = (w_half + np.roll(w_half, 1)) / h ** 2

    entries = []   # (lambda, m, Theta-vector)
    upper = None   # count-th lowest value collected so far
    for m in itertools.count():
        diag = (stiff + (b / c) * m * m / w) * scale ** 2
        lam, Z = _reflection_split_eigh(diag, off, per_mode, upper)
        # the potential (b/c) m^2 / w grows with m, and every eigenvalue with
        # it: a mode with none below the count-th value ends the search
        if lam.shape[0] == 0:
            break
        for j in range(lam.shape[0]):
            # the closed manifold has an exact kernel; snap the FD zero
            snapped = 0.0 if abs(lam[j]) < 1e-9 else lam[j]
            entries.append((snapped, m, scale * Z[:, j]))
        if len(entries) >= count:
            upper = sorted(e[0] for e in entries)[count - 1]

    entries.sort(key=lambda e: (e[0], e[1]))
    return th, entries[:count]


def sturm_liouville_truth(spec, N_theta=2048, count=30):
    """Semi-analytic Laplace-Beltrami spectrum of the general torus.

    Separation f = Theta(theta) e^{i m phi} reduces the eigenproblem to the
    periodic Sturm-Liouville pencil

        -d/dth( w Theta' ) + (b/c) m^2 / w Theta = lambda b w Theta,
        w(th) = a + cos th,

    discretized with second-order central differences in flux form on an
    N_theta grid. Folding the diagonal weight in gives a symmetric periodic
    tridiagonal matrix per Fourier mode. w is even in theta, so the
    reflection theta -> -theta splits that matrix into an even and an odd
    ordinary tridiagonal problem, solved by bisection and inverse
    iteration. The split needs the mirror point theta = pi on the grid, so
    N_theta must be even. Fourier modes m = 0, 1, ... are added until the
    lowest eigenvalue of mode m lies above the count-th value collected so
    far; no later mode can enter the list, because the potential
    (b/c) m^2 / w, and with it every eigenvalue, grows with m. Once `count`
    values are collected, a mode is solved only for eigenvalues at or below
    the count-th one. Modes with m > 0 carry multiplicity 2 (cos/sin in phi).
    Returns the `count` lowest (lambda, m) entries, ordered by (lambda, m).
    """
    th, entries = _sl_modes(spec, N_theta, count)
    values = []
    evaluators = []
    for lam, m, theta_vec in entries:
        values.append((float(lam), 1 if m == 0 else 2))
        evaluators.extend(_sl_evaluators(spec, th, theta_vec, m))
    return EigenTruth(values=values, evaluators=evaluators, kind="scalar")


def _torus_angles(spec, points):
    b, _c = _torus_constants(spec)
    points = np.atleast_2d(points)
    ring = np.hypot(points[:, 0], points[:, 1])   # a + cos th
    th = np.arctan2(points[:, -1] / math.sqrt(b), ring - spec.a)
    ph = np.arctan2(points[:, 1], points[:, 0])
    return th, ph


def _sl_evaluators(spec, grid, theta_vec, m):
    # periodic linear interpolation of Theta on the grid
    gx = np.concatenate([grid, [TWO_PI]])
    gy = np.concatenate([theta_vec, [theta_vec[0]]])

    def radial(points):
        th, ph = _torus_angles(spec, points)
        return np.interp(np.mod(th, TWO_PI), gx, gy), ph

    if m == 0:
        def ev(points):
            val, _ph = radial(points)
            return val
        return [ev]

    def ev_cos(points, m=m):
        val, ph = radial(points)
        return val * np.cos(m * ph)

    def ev_sin(points, m=m):
        val, ph = radial(points)
        return val * np.sin(m * ph)

    return [ev_cos, ev_sin]


def scalar_eigen_truth(spec, count):
    """Leading scalar Laplace-Beltrami spectrum with multiplicities."""
    if spec.kind == "sphere":
        return _sphere_scalar_truth(count)
    if spec.kind == "flat_torus":
        return _flat_torus_truth(spec, count)
    if spec.kind in ("torus", "general_torus"):
        return sturm_liouville_truth(spec, count=count)
    raise ValueError(f"no scalar eigen-truth for manifold kind {spec.kind!r}")
