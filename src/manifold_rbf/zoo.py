"""Analytic test manifolds embedded in R^n.

Each kind's constructor (Ellipse, ..., Sphere) owns its manifold block:
its parameters are the keys, its defaults the zoo instance. study_truth
alone picks the truth that scores a study, beside the ellipse's demo.

Provides samplers (SAMPLE_MODES: random in intrinsic coordinates or in
area, or lattice grids), exact tangent frames, Laplacian eigen-truth and
the density of a cloud's own draw with respect to the Riemannian volume
measure. The truth is closed-form on the sphere and the flat torus: every
degree of sphere harmonic comes from one recurrence (_sphere_harmonics),
the vector spectra from one rule over the scalar ones. On the tori it
separates into one periodic Sturm-Liouville problem per Fourier mode,
solved spectrally in theta to rounding accuracy (sturm_liouville_truth).
An EigenTruth hands its eigenfunctions to the scorer as one basis matrix
over a cloud (EigenTruth.basis), read at the cloud's own coordinates: its
angles on the tori, its points on the sphere.

embed is the one formula of each manifold. Derived from it:
- the Jacobian J (embedding_jacobian), by complex step (_complex_step);
- the analytic frames, the Q factor of J (analytic_projection);
- the area element sqrt(det(J^T J)) (metric_sqrt_det), which random_area
  draws and the density of intrinsic-uniform draws read.
The sphere's vector fields are complex-step gradients of its harmonics.
So embed and the harmonics must stay analytic: an abs, a real cast, a conj
or a branch on a value would silently corrupt the frames, the area element
and the vector truth.
"""

import functools
import inspect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rbf import config_number
from .tangent import ProjectionField
from .vector_ops import LAPLACIANS, stacked

TWO_PI = 2.0 * math.pi
KINDS = ("ellipse", "torus", "general_torus", "flat_torus", "sphere")
SAMPLE_MODES = ("random_intrinsic", "random_area", "grid")


def counter_rng(seed):
    # counter-based stream so identical seeds reproduce bit-identical samples
    # across platforms and run orders
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class ManifoldSpec:
    """One manifold from the built-in zoo, made by its kind's constructor.

    kind is one of KINDS; d and n are the intrinsic and ambient dimensions.
    `a` is the ellipse semi-axis or the torus radius ratio, `m` the number
    of harmonics per intrinsic dimension of the flat torus.
    """

    kind: str
    d: int
    n: int
    a: float = 0.0
    m: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown manifold kind {self.kind!r}")
        if self.kind == "ellipse":
            if (self.d, self.n) != (1, 2) or not 0 < self.a < math.inf:
                raise ValueError("ellipse requires d=1, n=2, a > 0")
        if self.kind in ("torus", "general_torus"):
            if not 1 < self.a < math.inf:
                raise ValueError("torus embeddings require a > 1")
            if self.d != 2 or self.n < 3 or self.n % 2 == 0:
                raise ValueError("torus requires d=2 and odd ambient n >= 3")
        if self.kind == "flat_torus":
            if min(self.d, self.m) < 1 or self.n != 2 * self.m * self.d:
                raise ValueError("flat torus requires n = 2*m*d, d, m >= 1")
        if self.kind == "sphere" and (self.d, self.n) != (2, 3):
            raise ValueError("sphere is the unit 2-sphere in R^3")

    def to_dict(self):
        """kind, d, n and the keys of the kind's constructor."""
        params = inspect.signature(_CONSTRUCTORS[self.kind]).parameters
        return {key: getattr(self, key) for key in ("kind", "d", "n", *params)}

    @staticmethod
    def from_dict(cfg):
        """The kind's constructor given the block's keys; a key the built
        spec does not hold as given raises ValueError."""
        kind = cfg.get("kind")
        if kind not in KINDS:
            raise ValueError(f"unknown manifold kind {kind!r}")
        make = _CONSTRUCTORS[kind]
        params = inspect.signature(make).parameters
        spec = make(**{k: v for k, v in cfg.items() if k in params})
        held = spec.to_dict()
        bad = {k: v for k, v in cfg.items() if k not in held or held[k] != v}
        if bad:
            raise ValueError(f"manifold keys {bad} do not fit {held}")
        return spec


def Ellipse(a=2.0):
    return ManifoldSpec("ellipse", d=1, n=2, a=config_number("a", a))


def Torus(a=2.0):
    return ManifoldSpec("torus", d=2, n=3, a=config_number("a", a))


def GeneralTorus(a=2.0, n=21):
    return ManifoldSpec("general_torus", d=2, a=config_number("a", a),
                        n=config_number("n", n, integral=True))


def FlatTorus(d=2, m=1):
    d = config_number("d", d, integral=True)
    m = config_number("m", m, integral=True)
    return ManifoldSpec("flat_torus", d=d, n=2 * m * d, m=m)


def Sphere():
    return ManifoldSpec("sphere", d=2, n=3)


_CONSTRUCTORS = dict(zip(KINDS, (Ellipse, Torus, GeneralTorus, FlatTorus,
                                 Sphere)))


# -- torus helpers -----------------------------------------------------------

def _torus_constants(spec):
    # c harmonic pairs; b = sum 1/i^2 scales the vertical coordinate so the
    # metric is diag(b, c(a+cos th)^2)
    c = (spec.n - 1) // 2
    b = sum(1.0 / (i * i) for i in range(1, c + 1))
    return b, c


def intrinsic_box(spec):
    """Per-dimension (lo, hi) of the intrinsic parameter box: a full turn
    per angle, but half a turn for the sphere's polar angle."""
    box = [(0.0, TWO_PI)] * spec.d
    if spec.kind == "sphere":
        box[0] = (0.0, math.pi)
    return box


def embed(spec, theta):
    """Map intrinsic coordinates (N, d) to ambient points (N, n).

    Complex theta stays complex, and every step must stay analytic:
    embedding_jacobian is the complex-step derivative of this formula.
    """
    theta = np.atleast_2d(theta)
    theta = theta.astype(np.result_type(theta, float), copy=False)
    N = theta.shape[0]
    if spec.kind == "ellipse":
        t = theta[:, 0]
        return np.column_stack([np.cos(t), spec.a * np.sin(t)])
    if spec.kind in ("torus", "general_torus"):
        b, c = _torus_constants(spec)
        th, ph = theta[:, 0], theta[:, 1]
        x = np.empty((N, spec.n), dtype=theta.dtype)
        ring = spec.a + np.cos(th)
        for i in range(1, c + 1):
            x[:, 2 * i - 2] = ring * np.cos(i * ph) / i
            x[:, 2 * i - 1] = ring * np.sin(i * ph) / i
        x[:, -1] = math.sqrt(b) * np.sin(th)
        return x
    if spec.kind == "flat_torus":
        scale = 1.0 / math.sqrt(sum(j * j for j in range(1, spec.m + 1)))
        x = np.empty((N, spec.n), dtype=theta.dtype)
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


def _complex_step(f, x):
    """Derivative of f: (N, k) -> (N, ...) as (N, ..., k), column a being
    Im f(x + i h e_a) / h with h = 1e-30: exact to rounding for analytic f,
    since nothing is subtracted (Squire & Trapp, SIAM Rev. 40, 1998)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    h = 1e-30
    return np.stack([f(x + 1j * h * e).imag / h
                     for e in np.eye(x.shape[1])], axis=-1)


def embedding_jacobian(spec, theta):
    """Jacobian of the embedding, shape (N, n, d), by complex step of
    embed."""
    return _complex_step(functools.partial(embed, spec), theta)


def metric_sqrt_det(spec, theta):
    """sqrt(det g) at intrinsic coordinates, shape (N,): the root of the
    d x d Gram determinant det(J^T J) of embedding_jacobian."""
    J = embedding_jacobian(spec, theta)
    return np.sqrt(np.linalg.det(J.transpose(0, 2, 1) @ J))


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
    mode: str = "random_intrinsic"

    @property
    def N(self):
        return self.points.shape[0]


def _sqrt_det_sup(spec):
    """Upper bound of sqrt(det g) over the intrinsic box (rejection
    envelope): the closed-form maximum raised by 8 eps, since the Gram
    determinant rounds up to 4.5 eps off the closed form."""
    peak = 1.0  # flat torus: 1; sphere: sin(theta) <= 1
    if spec.kind == "ellipse":
        peak = max(spec.a, 1.0)
    if spec.kind in ("torus", "general_torus"):
        b, c = _torus_constants(spec)
        peak = math.sqrt(b * c) * (spec.a + 1.0)
    return peak * (1.0 + 8.0 * np.finfo(float).eps)


def sample_manifold(spec, N, seed=0, mode="random_intrinsic"):
    """Draw N points on the manifold in one of the SAMPLE_MODES.

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
    if config_number("seed", seed, integral=True) < 0:
        raise ValueError("seed must be a non-negative integer")
    if mode not in SAMPLE_MODES:
        raise ValueError(f"sampling mode {mode!r} not in {SAMPLE_MODES}")
    lo, hi = np.array(intrinsic_box(spec)).T
    if mode == "random_intrinsic":
        rng = counter_rng(seed)
        theta = lo + (hi - lo) * rng.random((N, spec.d))
    elif mode == "random_area":
        rng = counter_rng(seed)
        sup = _sqrt_det_sup(spec)
        kept = []
        have = 0
        while have < N:
            cand = lo + (hi - lo) * rng.random((2 * N, spec.d))
            accept = rng.random(2 * N) * sup <= metric_sqrt_det(spec, cand)
            kept.append(cand[accept])
            have += int(np.sum(accept))
        theta = np.vstack(kept)[:N]
    else:   # grid
        k = round(N ** (1.0 / spec.d))
        if k ** spec.d != N:
            raise ValueError(
                f"grid mode needs N to be a perfect {spec.d}-th power; "
                f"got N={N} (nearest lattice is {k ** spec.d})")
        axes = []
        for i in range(spec.d):
            step = (hi[i] - lo[i]) / k
            offset = 0.5 * step if (spec.kind == "sphere" and i == 0) else 0.0
            axes.append(lo[i] + offset + step * np.arange(k))
        mesh = np.meshgrid(*axes, indexing="ij")
        theta = np.column_stack([mm.reshape(-1) for mm in mesh])
    return PointCloud(points=embed(spec, theta), intrinsic=theta, spec=spec,
                      mode=mode)


def _intrinsic(cloud, use):
    """The cloud's intrinsic coordinates, which `use` reads; a raw external
    cloud has none."""
    if cloud.intrinsic is None:
        raise ValueError(f"{use} needs intrinsic coordinates")
    return cloud.intrinsic


def analytic_projection(cloud):
    """Exact orthonormal tangent frames: the Q factor of the embedding
    Jacobian J = Q R at every point."""
    spec = cloud.spec
    J = embedding_jacobian(spec, _intrinsic(cloud, "analytic projection"))
    T, R = np.linalg.qr(J)
    # det(J^T J) = prod(diag R)^2
    det = np.prod(np.diagonal(R, axis1=1, axis2=2) ** 2, axis=1)
    if np.any(det <= 1e-300):
        bad = int(np.argmin(det))
        raise ValueError(
            f"degenerate embedding Jacobian at point {bad} "
            f"(intrinsic {cloud.intrinsic[bad]}); analytic frame undefined")
    return ProjectionField(frames=T, source="analytic", K_used=0)


def sampling_density(cloud):
    """True density of the cloud's own draw w.r.t. the volume measure.

    random_area draws are volume-uniform, q = 1 / vol(M). Intrinsic-uniform
    draws (random_intrinsic, grid) have q(theta) = 1 / (|box| *
    sqrt(det g(theta))), which integrates to one against dVol.
    """
    spec = cloud.spec
    if cloud.mode == "random_area":
        return np.full(cloud.N, 1.0 / volume(spec))
    theta = _intrinsic(cloud, "sampling density")
    box_vol = math.prod(hi - lo for lo, hi in intrinsic_box(spec))
    sq = metric_sqrt_det(spec, theta)
    if np.any(sq <= 0):
        raise ValueError("metric degenerate at a sample point")
    return 1.0 / (box_vol * sq)


@dataclass
class EigenTruth:
    """Reference spectrum: ascending (eigenvalue, multiplicity) pairs plus
    the eigenfunctions in expanded mode order.

    columns(cloud) takes a sampled PointCloud of Q points and yields one
    eigenfunction per mode at them: (Q,) values for scalar truth, (Q, n)
    ambient vectors for vector truth.
    """

    values: list
    columns: object
    kind: str = "scalar"

    def expanded(self, count):
        out = np.repeat([lam for lam, _m in self.values],
                        [mult for _lam, mult in self.values])[:count]
        if len(out) < count:
            raise ValueError(f"truth holds only {len(out)} modes, "
                             f"need {count}")
        return out

    def basis(self, cloud, count):
        """The first `count` eigenfunctions at the cloud as columns:
        (Q, count) for scalar truth, (nQ, count) for vector truth, each
        column in the coordinate-stacked layout of vector_ops.stacked."""
        cols = list(itertools.islice(self.columns(cloud), count))
        if len(cols) < count:
            raise ValueError(f"truth holds only {len(cols)} eigenfunctions, "
                             f"need {count}")
        if self.kind == "vector":
            cols = [stacked(c) for c in cols]
        return np.stack(cols, axis=1)


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


def _flat_torus_truth(spec, count):
    values, reps = _flat_torus_lattice(spec.d, count)

    def columns(cloud):
        t = _intrinsic(cloud, "the flat-torus truth")
        for lam, _mult in values:
            if lam == 0.0:
                yield np.ones(t.shape[0])
                continue
            for k in reps[int(lam)]:
                kv = np.array(k, dtype=float)
                yield np.cos(t @ kv)
                yield np.sin(t @ kv)

    return EigenTruth(values=values, columns=columns, kind="scalar")


# -- sphere spectrum ----------------------------------------------------------

def _sphere_harmonics(x, l):
    """The 2l + 1 degree-l harmonic polynomials at the points x (N, 3), as
    (N, 2l + 1) columns: Re and Im of (x + iy)^m times Q_l^m(z, r^2) for
    m = 1..l, then Q_l^0, so degree 1 is x, y, z. Q_l^m, the associated
    Legendre function made homogeneous of degree l - m, grows from
    Q_m^m = (2m - 1)!! by the recurrence for k = m + 1..l

        (k - m) Q_k^m = (2k - 1) z Q_{k-1}^m - (k + m - 1) r^2 Q_{k-2}^m,

    scaled by sqrt((2 - [m = 0]) (l - m)! / (l + m)!): Schmidt
    semi-normalised, |psi| <= 1 on the sphere and the columns orthogonal
    with equal norms. Only sums and products, so complex steps go through.
    """
    X, Y, Z = np.atleast_2d(x).T
    r2 = X * X + Y * Y + Z * Z
    cols, re, im = [], 1.0, 0.0         # Re, Im of (x + iy)^m
    for m in range(l + 1):
        scale = math.sqrt(math.prod(range(1, 2 * m, 2)) ** 2 * (2 - (m == 0))
                          * math.factorial(l - m) / math.factorial(l + m))
        lower, q = 0.0, scale * np.ones_like(Z)
        for k in range(m + 1, l + 1):
            lower, q = q, ((2 * k - 1) * Z * q
                           - (k + m - 1) * r2 * lower) / (k - m)
        cols += [q * re, q * im] if m else [q]
        re, im = re * X - im * Y, re * Y + im * X
    return np.stack(cols[1:] + cols[:1], axis=1)


def _sphere_scalar_truth(count):
    """The first count distinct values l(l+1), each with the 2l + 1
    degree-l harmonics as its columns."""
    values = [(float(l * (l + 1)), 2 * l + 1) for l in range(count)]

    def columns(cloud):
        for l in range(count):
            yield from _sphere_harmonics(cloud.points, l).T

    return EigenTruth(values=values, columns=columns, kind="scalar")


# (rotational, gradient) field values of a harmonic of scalar value lam
_SPHERE_VECTOR_RULE = {"Bochner": lambda lam: (lam - 1.0, lam - 1.0),
                       "Hodge": lambda lam: (lam, lam),
                       "Lich": lambda lam: (lam - 2.0, 2.0 * lam - 2.0)}


def vector_eigen_truth(spec, operator, count):
    """Sphere vector-Laplacian truth: the first count distinct eigenvalues
    with their tangential eigenfields.

    A degree-l harmonic psi, of scalar value lam = l(l+1), gives the
    rotational field x × grad psi (J grad psi) and the gradient field
    P grad psi = grad psi - (x·grad psi) x. The Hodge Laplacian commutes
    with d and the Hodge star: lam on both. Weitzenböck gives Bochner =
    Hodge - K: lam - K on both. The Lichnerowicz form ½|∇u + ∇uᵀ|² is the
    Bochner form + ‖div u‖² - ∫K|u|²: lam - 2K on the divergence-free
    rotational fields, and 2 lam - 2K on the gradient ones, whose div u =
    -lam psi has ‖div u‖² = lam ‖u‖². Here K = 1 (_SPHERE_VECTOR_RULE); the
    l = 1 rotations span Lich's kernel.

    Blocks run by (value, l, rotational first). Each family's value grows
    with l, so degrees 1..count hold count distinct values of each, and no
    later degree undercuts them. grad psi is the complex-step derivative of
    _sphere_harmonics, so the fields cannot drift from the scalar truth.
    """
    if spec.kind != "sphere":
        raise ValueError("vector eigen-truth is available for the sphere only")
    if operator not in _SPHERE_VECTOR_RULE:
        raise ValueError(f"unknown vector Laplacian {operator!r}")
    # (value, l, gradient?): enumerate gives the rotational family 0
    blocks = sorted((value, l, gradient) for l in range(1, count + 1)
                    for gradient, value in enumerate(
                        _SPHERE_VECTOR_RULE[operator](l * (l + 1.0))))
    values = [(v, sum(2 * l + 1 for w, l, _g in blocks if w == v))
              for v in sorted({b[0] for b in blocks})[:count]]
    blocks = [b for b in blocks if b[0] in dict(values)]

    def columns(cloud):
        x = cloud.points
        for _value, l, gradient in blocks:
            G = _complex_step(functools.partial(_sphere_harmonics, l=l), x)
            for g in G.transpose(1, 0, 2):
                yield g - np.sum(x * g, axis=1, keepdims=True) * x \
                    if gradient else np.cross(x, g)

    return EigenTruth(values=values, columns=columns, kind="vector")


# -- general torus: Sturm-Liouville reduction ---------------------------------

# Highest theta harmonic K of the Galerkin basis {1, cos k th, sin k th}, and
# the trapezoid nodes that integrate its matrix entries. A Fourier mode keeps
# its K lowest values, whose eigenfunctions sit on harmonics up to about K/2.
_SL_K = 24
_SL_NODES = 128


def _theta_basis(th):
    """Rows [1, cos k th, sin k th], k = 1.._SL_K, at the angles th."""
    kt = np.multiply.outer(th, np.arange(1, _SL_K + 1))
    return np.hstack([np.ones((kt.shape[0], 1)), np.cos(kt), np.sin(kt)])


def _sl_modes(spec, count):
    """The `count` lowest (lambda, m, coefficients of Theta in _theta_basis)
    of the torus pencil, sorted by (lambda, m); see sturm_liouville_truth."""
    if spec.kind not in ("torus", "general_torus"):
        raise ValueError("Sturm-Liouville truth applies to torus kinds")
    if count < 1:
        raise ValueError(f"count={count} must be at least 1")
    b, c = _torus_constants(spec)
    h = TWO_PI / _SL_NODES
    th = h * np.arange(_SL_NODES)
    w = (spec.a + np.cos(th))[:, None]
    F = _theta_basis(th)
    k = np.arange(1, _SL_K + 1)
    cos_k, sin_k = F[:, 1:_SL_K + 1], F[:, _SL_K + 1:]
    dF = np.hstack([np.zeros_like(F[:, :1]), -k * sin_k, k * cos_k])
    # one Cholesky factor of the mass b int w F F^T serves every mode
    inv_L = np.linalg.inv(np.linalg.cholesky(b * h * F.T @ (w * F)))
    stiff = inv_L @ (h * dF.T @ (w * dF)) @ inv_L.T
    potential = inv_L @ ((b / c) * h * F.T @ (F / w)) @ inv_L.T

    entries = []        # (lambda, m, coefficients)
    upper = np.inf      # count-th lowest value collected so far
    resolved = np.inf   # lowest _SL_K-th value of any mode
    for m in itertools.count():
        lam, Y = np.linalg.eigh(stiff + m * m * potential)
        resolved = min(resolved, lam[_SL_K - 1])
        keep = np.flatnonzero(lam[:_SL_K] <= upper)
        # the potential (b/c) m^2 / w grows with m, and every eigenvalue with
        # it: a mode with none below the count-th value ends the search
        if keep.size == 0:
            break
        for j in keep:
            # the closed manifold has an exact kernel; snap the rounded zero
            snapped = 0.0 if abs(lam[j]) < 1e-9 else lam[j]
            entries.append((snapped, m, inv_L.T @ Y[:, j]))
        if len(entries) >= count:
            upper = sorted(e[0] for e in entries)[count - 1]

    entries = sorted(entries, key=lambda e: (e[0], e[1]))[:count]
    if entries[-1][0] >= resolved:
        raise ValueError(f"count={count} reaches past the {_SL_K} resolved "
                         f"values of a Fourier mode")
    return entries


def sturm_liouville_truth(spec, count):
    """Semi-analytic Laplace-Beltrami spectrum of the general torus.

    Separation f = Theta(theta) e^{i m phi} reduces the eigenproblem to the
    periodic Sturm-Liouville pencil

        -d/dth( w Theta' ) + (b/c) m^2 / w Theta = lambda b w Theta,
        w(th) = a + cos th,

    solved per Fourier mode m by a Galerkin method on the trigonometric
    basis {1, cos k th, sin k th}, k <= _SL_K. The stiffness int w phi_k'
    phi_l', the potential (b/c) m^2 int phi_k phi_l / w and the mass
    b int w phi_k phi_l are taken by the trapezoid rule on _SL_NODES points,
    exact for the first and last, exponentially accurate for the potential.
    One Cholesky factor of the mass reduces every mode to a small symmetric
    eigh. Theta is analytic in a strip of half-width arccosh(a), so the
    values converge like (a - sqrt(a^2 - 1))^(2 _SL_K): to rounding at
    a = 2. Each Theta is normalised to b int w Theta_i Theta_j dth = delta_ij
    within its mode.

    Fourier modes m = 0, 1, ... are added until the lowest eigenvalue of
    mode m lies above the count-th value collected so far; no later mode can
    enter the list, because the potential (b/c) m^2 / w, and with it every
    eigenvalue, grows with m. Modes with m > 0 carry multiplicity 2 (cos/sin
    in phi). Returns the `count` lowest (lambda, m) entries, ordered by
    (lambda, m); a count that needs more than the _SL_K lowest values of one
    mode raises ValueError.
    """
    entries = _sl_modes(spec, count)
    values = [(float(lam), 1 if m == 0 else 2) for lam, m, _x in entries]
    coefs = np.column_stack([x for _lam, _m, x in entries])

    def columns(cloud):
        th_x, ph_x = _intrinsic(cloud, "the torus truth").T
        thetas = _theta_basis(th_x) @ coefs
        for (_lam, m, _x), val in zip(entries, thetas.T):
            if m == 0:
                yield val
            else:
                yield val * np.cos(m * ph_x)
                yield val * np.sin(m * ph_x)

    return EigenTruth(values=values, columns=columns, kind="scalar")


def scalar_eigen_truth(spec, count):
    """Leading scalar Laplace-Beltrami spectrum with multiplicities."""
    if spec.kind == "sphere":
        return _sphere_scalar_truth(count)
    if spec.kind == "flat_torus":
        return _flat_torus_truth(spec, count)
    if spec.kind in ("torus", "general_torus"):
        return sturm_liouville_truth(spec, count)
    raise ValueError(f"no scalar eigen-truth for manifold kind {spec.kind!r}")


# -- the truth of a study -----------------------------------------------------

def study_truth(spec, operator, count):
    """The truth that scores a study of `operator` on spec, or None: count
    distinct values (one or more per compared mode), of the scalar truth for
    LB off the ellipse, of the sphere's vector truth for a vector Laplacian."""
    if count < 1:
        raise ValueError(f"count={count} must be at least 1")
    if operator == "LB" and spec.kind != "ellipse":
        return scalar_eigen_truth(spec, count)
    if operator in LAPLACIANS and spec.kind == "sphere":
        return vector_eigen_truth(spec, operator, count)
    return None


def truth_build_words(spec, operator):
    """Peak float64 words of building study_truth(spec, operator, ...).

    Only the tori's Sturm-Liouville truth (_sl_modes) has a sizable one,
    which no cloud size scales: on nodes = _SL_NODES angles with b = 2 _SL_K
    + 1 basis functions it peaks while forming the potential, holding the
    angles and weights (2 nodes); the basis, its derivative, the scaled
    transpose, the quotient by the weights and numpy's broadcast buffer for
    it (5 nodes b); the inverse Cholesky factor and the stiffness (2 b^2).
    Each Fourier mode's eigh holds 3 b^2 more outside tracemalloc."""
    if operator != "LB" or spec.kind not in ("torus", "general_torus"):
        return 0
    nodes, b = _SL_NODES, 2 * _SL_K + 1
    return 2 * nodes + 5 * nodes * b + 5 * b * b


def ellipse_covariant_truth(cloud):
    """The ellipse's covariant-derivative demo: the field u = sin(theta)
    d/dtheta and its derivative along itself, (u u' + Gamma u^2) d/dtheta,
    in ambient components; d/dtheta is the one column of the Jacobian."""
    tau = embedding_jacobian(cloud.spec, cloud.intrinsic)[:, :, 0]
    th, a = cloud.intrinsic[:, 0], cloud.spec.a
    u = np.sin(th)
    g = u ** 2 + a * a * np.cos(th) ** 2
    gamma = np.sin(2.0 * th) * (1.0 - a * a) / (2.0 * g)
    coef = u * np.cos(th) + gamma * u ** 2
    return u[:, None] * tau, coef[:, None] * tau
