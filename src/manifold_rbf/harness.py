"""Experiment runner: sampling, projection, operators, spectra, reports.

A run is fully determined by its configuration and seeds. Every CSV comes
from spectral.write_table, the one table writer, whose fixed float format
makes identical configurations reproduce identical bytes. Wall-clock times
never enter the CSVs (they live in the JSON run log, outside that guarantee).
"""

import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from . import vector_ops, zoo
from .density import kde_density
from .dm import dm_spectrum, graph_neighbors, validate_graph
from .rbf import (KernelModel, build_system, check_config_keys,
                  config_number, row_blocks)
from .scalar_ops import (build_grad_matrices, laplace_beltrami_nonsymmetric,
                         laplace_beltrami_symmetric)
from .spectral import (SpectralResult, align_eigenvectors_ols, lift,
                       solve_nonsymmetric, solve_symmetric, symmetric_result,
                       write_alignment_csv, write_spectrum_csv, write_table)
from .tangent import first_order_svd, neighbor_count, second_order_svd
from .vector_ops import bochner, covariant_derivative, hodge, lichnerowicz

MEMORY_ENV_VAR = "MANIFOLD_RBF_MEM_GIB"
DEFAULT_MEMORY_GIB = 2.0

METHODS = ("NRBF", "SRBF", "DM")
OPERATORS = ("LB", *vector_ops.LAPLACIANS, "Covariant")
PROJECTIONS = ("Analytic", "FirstOrder", "SecondOrder")
DENSITIES = ("Analytic", "KDE", "Uniform")


@dataclass
class ExperimentConfig:
    manifold: zoo.ManifoldSpec
    N_list: list
    method: str = "NRBF"
    operator: str = "LB"
    projection: str = "Analytic"
    kernel: KernelModel = KernelModel("gaussian", 1.0)
    density: str = "Uniform"
    seeds: list = dc_field(default_factory=lambda: [0])
    # sample the tangent frames are estimated from; operators use its first N
    N_p: int = None
    K: int = None                  # tangent-estimation neighbors
    dm_K: int = None               # DM graph neighbors, sqrt(N) by default
    dm_epsilon: float = None
    sample_mode: str = "random_intrinsic"
    # leading modes compared with the truth, which holds as many distinct
    # eigenvalues; the DM baseline computes twice as many
    compare_count: int = 12

    def validate(self):
        for name in ("N_list", "seeds"):
            values = getattr(self, name)
            try:
                for value in values:
                    config_number(name, value, integral=True)
            except (TypeError, ValueError):
                values = None
            if not isinstance(values, list):
                raise ValueError(f"{name} must be a list of integers")
            if not values:
                raise ValueError(f"{name} must not be empty")
        if min(self.seeds) < 0:
            raise ValueError("seeds must be non-negative integers")
        for name in ("compare_count", "N_p", "K", "dm_K", "dm_epsilon"):
            value = getattr(self, name)
            if value is not None or name == "compare_count":
                config_number(name, value, integral=name != "dm_epsilon")
            if name in ("compare_count", "K") and value is not None and \
                    value < 1:
                raise ValueError(f"{name} must be at least 1")
        for name, allowed in (("method", METHODS), ("operator", OPERATORS),
                              ("projection", PROJECTIONS),
                              ("density", DENSITIES),
                              ("sample_mode", zoo.SAMPLE_MODES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")
        if self.method == "DM" and self.operator != "LB":
            raise ValueError("the diffusion-maps baseline only estimates the "
                             "scalar Laplacian (operator=LB)")
        if self.operator == "Covariant" and self.manifold.kind != "ellipse":
            raise ValueError("the covariant-derivative check runs on the "
                             "ellipse demo manifold")
        if self.operator in vector_ops.LAPLACIANS and \
                self.manifold.kind not in ("sphere", "ellipse"):
            raise ValueError("vector operators run where vector truth or the "
                             "1D demo is available (sphere or ellipse)")
        if self.N_p is not None and self.N_p < max(self.N_list):
            raise ValueError("N_p must be at least the operator cloud size")
        if self.sample_mode == "grid" and (self.N_p or 0) > min(self.N_list):
            raise ValueError(f"grid mode refuses N_p={self.N_p} > N: the "
                             f"first N points of a larger lattice are a band")
        if self.method == "DM":
            for N in self.N_list:
                validate_graph(N, self.dm_K, self.dm_epsilon)
        elif self.projection != "Analytic":
            K = neighbor_count(self.K, self.manifold.d,
                               second_order=self.projection == "SecondOrder")
            searched = self.N_p or min(self.N_list)
            if K >= searched:
                raise ValueError(f"K={K} must be smaller than the searched "
                                 f"cloud size N={searched}")
        if self.compare_count >= min(self.N_list):
            raise ValueError(f"compare_count={self.compare_count} must be "
                             f"smaller than the cloud size "
                             f"N={min(self.N_list)}")

    def to_dict(self):
        return {**asdict(self), "manifold": self.manifold.to_dict()}

    @staticmethod
    def from_dict(cfg):
        check_config_keys(ExperimentConfig, cfg, "config")
        cfg = dict(cfg)
        cfg["manifold"] = zoo.ManifoldSpec.from_dict(cfg["manifold"])
        if "kernel" in cfg:
            cfg["kernel"] = KernelModel.from_dict(cfg["kernel"])
        return ExperimentConfig(**cfg)


def memory_cap_bytes():
    """The refusal cap in bytes: MANIFOLD_RBF_MEM_GIB GiB, or the default.

    The value must be a positive number of GiB (inf turns the guard off);
    anything else, NaN included, raises ValueError rather than letting
    every comparison with the cap pass.
    """
    raw = os.environ.get(MEMORY_ENV_VAR)
    if raw is None:
        return DEFAULT_MEMORY_GIB * 2 ** 30
    try:
        gib = float(raw)
    except ValueError:
        gib = float("nan")
    if not gib > 0:
        raise ValueError(f"{MEMORY_ENV_VAR}={raw!r} is not a positive "
                         f"number of GiB")
    return gib * 2 ** 30


def estimate_run_bytes(config, N, rank):
    """Peak bytes of the working set of one run at cloud size N whose
    interpolation system keeps r = rank eigenvectors of Phi.

    rank = N is the worst case. rank = 0 leaves what every rank needs,
    Phi's build and eigh with the cloud: all that can be known before Phi
    is factored. Used only for the refusal guard.

    Counted in float64 words and calibrated against the tracemalloc peak of
    the operator build plus solve (and, at N = 100 and 200, of the whole run
    with its truth), plus the largest set of buffers one numpy.linalg call
    holds outside tracemalloc (the input copy and work of eigh, eig, qr,
    cholesky or solve: 3 n^2 words for an n x n eigh). The estimate adds the
    same three parts:
    - Traced: the largest of Phi's build (4 N^2: the distances, their
      scaled copy and two temporaries) and the operator's stages below.
      The derivatives stream through three N-wide row blocks of
      rbf.ROW_BLOCK_BYTES (the kernel derivative and the brackets of two
      directions) beside U and its scaled copy; an SRBF form holds one
      block's d x rows x r derivatives, and the NRBF operators and the
      covariant derivative (on the ellipse, d = 1) gather the d whole
      factors G_a, (d + 2) N r words with U and its copy.
    - Outside tracemalloc: the larger of eigh(Phi)'s 3 N^2 and the
      operator solve's own call.
    - One more N x N for the cloud, frames and truth columns, which weigh
      most at small N.

    The operator stages, with p = n r the trial dimension of a vector
    operator and m = min(d N, p):
    - Covariant derivative: none past its one factor.
    - SRBF LB: the form, 2 r^2 beside the streamed derivatives (the form
      and one X^T X product); the solve, the larger of 2 N r + 3 r^2 (U,
      the scaled factor, the unreduced form, the reduced form's buffer and
      S^T S) and N r + 4 r^2 (U, the two forms, the Cholesky factor and
      S^T S or A C). The solver frees the unreduced form once it is
      reduced and keeps the Cholesky factor in the reduced form's unread
      triangle, so the eigensolve has U, the reduced form and its
      eigenvectors beside it; a form its caller holds adds r^2, within the
      terms as r <= N. eigh's 3 r^2 outside.
    - NRBF LB: the left factor, (d + 4) N r + r^2 (U, the factors, the
      N x r left factor, one ambient gradient and its product); the solve,
      5 N r + 4 r^2 (the left factor, U and its orthonormal basis, the
      complex eigenvectors of the reduced matrix, their interleaved parts
      and the lifted vectors; the basis is built first from the reflectors,
      R, M, the identity and M^{-1} V^T, 4 N r + 4 r^2 with the left
      factor and U); outside, the larger of eig's 4 r^2 + 150 r and the
      raw QR's N r + 65 r.
    - SRBF vector pencils: the form, 4 rows p + 2 p^2 beside the streamed
      derivatives (the part summed, the next, its swapped companion and
      that times its sign, rows x p each; the form and one X^T X); the
      solve, N r + p^2 + d N p + max(2 d N p, 2 m p + 2 m^2)
      (U, the form and either the factor, its scaled copy and the QR's
      factored copy of that, or the reflectors in the factored copy with
      R, R A, M and the reduced m x m form; M, the form, its symmetrising
      temporary and the eigenvectors fit within the latter; the form is
      counted throughout, though the solver frees it once the pencil is
      reduced, and the factor frees once its reflectors exist); outside,
      the larger of eigh's 3 m^2 and the raw QR's d N p + 65 m.
    - NRBF vector operators, on frame coordinates: the factor,
      (d + 1) N r + (d + 3) N p + r p + n^2 N (U, the d factors, the n
      ambient gradients, the d N x p factor, its N x p accumulator, one
      term's N x p rows and their r x p product by U^T, or that product
      and its N x p product by G_i, and the projectors P; no n N-row or
      p x p block is formed); the solve,
      N r + 2 d N p + m p + d N m + 4 m^2 (U, the factor and the factored
      copy, R, the d N x m basis, M, the identity and M^{-1} V^T; the
      restriction into one n r x m block, the eigenvectors and the lift fit
      within it; one d N x p block to spare, as the factor is freed before
      the reflectors exist); outside, the larger of eig's 4 m^2 + 150 m and
      the raw QR's d N p + 65 m.
    No QR forms its Q: the raw QR holds LAPACK's copy of its input and its
    work outside tracemalloc, and the factored copy inside.
    The diffusion-maps baseline is sparse and has no rank: the KNN search
    and the CSR graph hold about 10 N K words for K neighbors, and the
    Lanczos solve four N x ncv blocks (basis, work and the eigenvectors
    before and after the back-transform) for ARPACK's default
    ncv = max(2k + 1, 20) at k computed modes.

    Every method adds its truth's build (zoo.truth_build_words).
    """
    truth = zoo.truth_build_words(config.manifold, config.operator)
    if config.method == "DM":
        K = graph_neighbors(N, config.dm_K)
        ncv = max(2 * _dm_mode_count(config, N) + 1, 20)
        return 8 * (N * (10 * K + 4 * ncv) + truth)
    traced, untraced = _operator_words(config, N, rank)
    words = max(4 * N * N, traced) + max(3 * N * N, untraced) + N * N
    return 8 * (words + truth)


def _operator_words(config, N, r):
    """(traced, untraced) words of the operator stages at rank r, as
    estimate_run_bytes counts them."""
    n, d = config.manifold.n, config.manifold.d
    p = n * r
    m = min(d * N, p)
    rows = next(row_blocks(N)).stop
    blocks = 3 * N * rows
    grads = (d + 2) * N * r + blocks
    if config.operator == "Covariant":
        return grads, 0
    if config.method == "SRBF":
        stream = 2 * N * r + blocks + d * rows * r
        if config.operator == "LB":
            return (max(stream + 2 * r * r, 2 * N * r + 3 * r * r,
                        N * r + 4 * r * r), 3 * r * r)
        solve = (N * r + p * p + d * N * p
                 + max(2 * d * N * p, 2 * m * p + 2 * m * m))
        return (max(stream + 4 * rows * p + 2 * p * p, solve),
                max(3 * m * m, d * N * p + 65 * m))
    if config.operator == "LB":
        return (max(grads, (d + 4) * N * r + r * r, 5 * N * r + 4 * r * r),
                max(4 * r * r + 150 * r, N * r + 65 * r))
    return (max(grads, (d + 1) * N * r + (d + 3) * N * p + r * p + n * n * N,
                N * r + 2 * d * N * p + m * p + d * N * m + 4 * m * m),
            max(4 * m * m + 150 * m, d * N * p + 65 * m))


def _dm_mode_count(config, N):
    return min(N, 2 * config.compare_count)


class MemoryRefusal(RuntimeError):
    """The memory guard's refusal of a run too large for the cap."""


def check_memory(config, N, rank):
    """Refuse a run whose estimate_run_bytes at this rank exceeds the cap."""
    need = estimate_run_bytes(config, N, rank)
    cap = memory_cap_bytes()
    if need > cap:
        raise MemoryRefusal(
            f"refusing run at N={N}: estimated {need / 2**30:.2f} GiB "
            f"working set exceeds the {cap / 2**30:.2f} GiB cap "
            f"(raise {MEMORY_ENV_VAR} to override)")


@dataclass
class RunRecord:
    N: int
    seed: int
    result: SpectralResult
    mode_errors: np.ndarray = None     # paired eigenvalue errors
    vec_errors: np.ndarray = None      # aligned eigenvector errors
    field_error: float = None          # covariant-derivative demo
    truth_vals: np.ndarray = None
    aligned_est_vals: np.ndarray = None
    rank_L: int = 0
    wall_time: float = 0.0


@dataclass
class Report:
    config: ExperimentConfig
    runs: list
    convergence: list                  # rows (N, mean_error)
    slope: float = None

    def write(self, out_dir, prefix="run"):
        os.makedirs(out_dir, exist_ok=True)
        echo = self.config.to_dict()
        for rec in self.runs:
            tag = f"{prefix}_N{rec.N}_seed{rec.seed}"
            if rec.result is not None:
                write_spectrum_csv(
                    os.path.join(out_dir, f"{tag}_spectrum.csv"),
                    rec.result, config_echo=echo)
            if rec.vec_errors is not None:
                write_alignment_csv(
                    os.path.join(out_dir, f"{tag}_alignment.csv"),
                    rec.truth_vals, rec.aligned_est_vals, rec.vec_errors,
                    config_echo=echo)
        if self.convergence:
            slope = [] if self.slope is None else \
                [{"fitted_slope": f"{self.slope:.17g}"}]
            write_table(os.path.join(out_dir, f"{prefix}_convergence.csv"),
                        "convergence-v1", [{"config": echo}, *slope],
                        ["N", "mean_error"], self.convergence)
        log = os.path.join(out_dir, f"{prefix}_runlog.jsonl")
        with open(log, "w") as fh:
            for rec in self.runs:
                entry = {"N": rec.N, "seed": rec.seed, "rank_L": rec.rank_L,
                         "wall_time": rec.wall_time, "config": echo}
                if rec.result is not None:
                    entry["structural_zeros"] = rec.result.structural_zeros
                    entry["solve_dim"] = rec.result.solve_dim
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        with open(os.path.join(out_dir, f"{prefix}_report.json"), "w") as fh:
            json.dump({"config": echo, "slope": self.slope,
                       "convergence": self.convergence}, fh, sort_keys=True,
                      indent=2)


def subset_cloud(cloud, N):
    if N == cloud.N:
        return cloud
    return zoo.PointCloud(points=cloud.points[:N],
                          intrinsic=None if cloud.intrinsic is None
                          else cloud.intrinsic[:N],
                          spec=cloud.spec, mode=cloud.mode)


def build_projection(config, N, seed):
    """Draw the cloud of one run (N_p points, or N) and return its first N
    points with their tangent projection; DM reads none."""
    cloud_full = zoo.sample_manifold(config.manifold, config.N_p or N, seed,
                                     mode=config.sample_mode)
    op_cloud = subset_cloud(cloud_full, N)
    if config.method == "DM":
        return op_cloud, None
    if config.projection == "Analytic":
        return op_cloud, zoo.analytic_projection(op_cloud)
    query = np.arange(N) if cloud_full.N > N else None
    if config.projection == "FirstOrder":
        proj = first_order_svd(cloud_full, config.K, query_idx=query)
    else:
        proj = second_order_svd(cloud_full, config.K, query_idx=query)
    return op_cloud, proj


def build_density(config, op_cloud):
    if config.density == "Analytic":
        return zoo.sampling_density(op_cloud)
    if config.density == "KDE":
        return kde_density(op_cloud)
    return np.ones(op_cloud.N)


# alignment_gate keeps modes whose truth-span residual is at most GATE_CAP,
# among the first max(4 * count, GATE_WINDOW) nontrivial modes
GATE_CAP = 0.5
GATE_WINDOW = 120


def _gate_window(count):
    """The nontrivial modes alignment_gate reads when it scores count."""
    return max(4 * count, GATE_WINDOW)


def alignment_gate(result, F, normal_gram):
    """Select the nontrivial modes whose eigenvectors lie in the span of the
    truth basis F (EigenTruth.basis at the operator's points, on the
    result's coordinates; see frame_truth for a vector field).

    Rank truncation scatters spurious modes through the vector spectra
    (degraded copies of unresolved high-degree blocks land between the
    genuine ones), so magnitude ordering alone cannot identify the leading
    modes. The genuine modes fit the truth basis with near-zero OLS residual
    while the spurious ones sit near 1; the gap is wide, so the cap is not
    delicate. A mode's residual is the root of the summed squared norms of
    its columns: the real and imaginary parts of a complex mode are scored
    together. normal_gram, the Gram matrix of the truth columns' parts
    that the result's coordinates cannot hold (frame_truth), adds their
    share to the residuals: they are those of the columns lifted with
    those parts.
    Returns (kept_indices, residuals_over_window).
    """
    window = _gate_window(F.shape[1])
    nontrivial_idx = np.flatnonzero(~result.trivial)[:window]
    V = np.take(result.vectors, nontrivial_idx, axis=1)
    complex_modes = np.iscomplexobj(V)
    # take gathers in C order, so a complex block views as interleaved
    # real and imaginary columns
    parts = V.view(float) if complex_modes else V
    coef = np.linalg.pinv(F.T @ F + normal_gram) @ (F.T @ parts)
    miss = F @ coef - parts
    miss_sq = np.sum(miss * miss, axis=0) \
        + np.sum(coef * (normal_gram @ coef), axis=0)

    def per_mode(sq):
        return sq[0::2] + sq[1::2] if complex_modes else sq

    resid = np.sqrt(per_mode(miss_sq) / per_mode(np.sum(parts * parts, 0)))
    kept = nontrivial_idx[resid <= GATE_CAP]
    return kept, resid


def frame_truth(F, proj):
    """Split ambient truth columns F into their frame coordinates
    G = W^T F, on which a vector field's eigenvectors are scored, and the
    Gram matrix of their normal parts F - W G, W being the range basis of
    proj.frames (G and W G are lifts over the frames, spectral.lift). Since
    W^T (F - W G) = 0, a column's squared residual against W v is that of G
    against v plus its normal part's, so the scores are those of the
    ambient columns. The normal part is rounding under analytic frames, not
    under estimated ones."""
    T = proj.frames
    G = lift(T.transpose(0, 2, 1), F)
    normal = F - lift(T, G)
    return G, normal.T @ normal


def paired_mode_errors(result, truth_vals, candidates=None):
    """Eigenvalue errors of the leading modes against truth_vals, with
    kernel-aware pairing.

    Truth zero modes are matched against the estimate's near-zero modes:
    a sub-threshold nontrivial estimate consumes the slot when present
    (threshold: half the first nonzero truth value); otherwise the slot is
    taken by an exact truncation zero. Remaining estimates pair positionally.
    `candidates` restricts the usable modes to a precomputed index list
    (see alignment_gate). Returns (errors, est_indices) where index -1 marks
    a slot satisfied by a truncation zero.
    """
    truth_vals = np.asarray(truth_vals, dtype=float)
    nontrivial_idx = np.flatnonzero(~result.trivial) \
        if candidates is None else np.asarray(candidates, dtype=int)
    est = np.abs(result.values[nontrivial_idx])
    first_nonzero = next((v for v in truth_vals if v > 1e-12), 1.0)
    matched = np.empty(len(truth_vals))
    indices = np.full(len(truth_vals), -1, dtype=int)
    i = 0
    for slot, t in enumerate(truth_vals):
        if t < 1e-12:
            if i < len(est) and est[i] < 0.5 * first_nonzero:
                matched[slot] = est[i]
                indices[slot] = nontrivial_idx[i]
                i += 1
            else:
                matched[slot] = 0.0
        else:
            if i >= len(est):
                raise ValueError(
                    f"spectrum provides only {len(est)} usable modes, "
                    f"comparison needs more (slot {slot})")
            matched[slot] = est[i]
            indices[slot] = nontrivial_idx[i]
            i += 1
    errors = np.abs(matched - truth_vals) / np.maximum(truth_vals, 1.0)
    return errors, indices


def _solve_rbf(config, op_cloud, proj, q):
    """Build the configured RBF operator and solve for its full spectrum:
    rank truncation leaves a large trivial cluster at zero, and the usable
    modes sit above it. Either solve lifts eigenvectors only for the
    nontrivial modes the run reads (the alignment_gate window), those of a
    vector field on frame coordinates. The memory guard runs again at the
    real rank once Phi is factored.

    Every SRBF form is summed over the derivative row blocks; only an NRBF
    operator holds the whole factors G_a. Each builder is a module name
    looked up at call time, and the operator is built inside the solver's
    call and bound to no name here, so the solver frees the unreduced form
    once it has reduced it (the hand-over in spectral; CPython >= 3.11)."""
    system = build_system(op_cloud, config.kernel)
    check_memory(config, system.N, system.rank_L)
    tol = config.kernel.pinv_tol
    vector = config.operator != "LB"
    # one value per point, d frame coordinates per point for a vector field
    dim = system.N * (config.manifold.d if vector else 1)
    k = min(dim, _gate_window(config.compare_count))
    laplacian = {"Bochner": bochner, "Hodge": hodge,
                 "Lich": lichnerowicz}.get(config.operator)
    if config.method == "NRBF":
        return solve_nonsymmetric(
            laplacian("NRBF", system, proj) if vector else
            laplace_beltrami_nonsymmetric(build_grad_matrices(system, proj)),
            basis=system.U, pinv_tol=tol, k=k,
            range_basis=proj.frames if vector else None), system.rank_L
    return solve_symmetric(
        laplacian("SRBF", system, proj, q) if vector else
        laplace_beltrami_symmetric(system, proj, q),
        k, pinv_tol=tol), system.rank_L


def _run_covariant(config, op_cloud, proj):
    system = build_system(op_cloud, config.kernel)
    check_memory(config, system.N, system.rank_L)
    U, truth = zoo.ellipse_covariant_truth(op_cloud)
    est = covariant_derivative(system, proj, U, U)
    err = float(np.max(np.abs(est[:, 0] - truth[:, 0])))
    return err, system.rank_L


def run_experiment(config):
    """Execute the configured study over every (N, seed) pair."""
    config.validate()
    count = config.compare_count
    # a compare_count the truth cannot resolve fails before any sampling
    truth = zoo.study_truth(config.manifold, config.operator, count)
    truth_vals = None if truth is None else truth.expanded(count)
    runs = []
    for N in config.N_list:
        # Phi's build and eigh now; the rank-dependent rest once it is known
        check_memory(config, N, rank=0)
        for seed in config.seeds:
            t0 = time.perf_counter()
            op_cloud, proj = build_projection(config, N, seed)
            rec = RunRecord(N=N, seed=seed, result=None)
            if config.operator == "Covariant":
                rec.field_error, rec.rank_L = _run_covariant(
                    config, op_cloud, proj)
            elif config.method == "DM":
                lam, vec, lam_max = dm_spectrum(
                    op_cloud, _dm_mode_count(config, N), config.dm_K,
                    config.dm_epsilon)
                rec.result = symmetric_result(lam, vec,
                                              config.kernel.pinv_tol,
                                              radius=lam_max)
                rec.rank_L = rec.result.rank_L
            else:
                q = build_density(config, op_cloud) \
                    if config.method == "SRBF" else None
                rec.result, rec.rank_L = _solve_rbf(config, op_cloud, proj,
                                                    q)
                if config.method == "NRBF" and np.any(
                        rec.result.all_values.real
                        < -rec.result.trivial_cutoff):
                    warnings.warn(
                        "non-symmetric spectrum has modes in the left half "
                        "plane; treat them as pollution",
                        RuntimeWarning)
            if truth is not None and rec.result is not None:
                rec.truth_vals = truth_vals
                F = truth.basis(op_cloud, count)
                candidates = normal = None
                if truth.kind == "vector":
                    F, normal = frame_truth(F, proj)
                    candidates, _resid = alignment_gate(rec.result, F,
                                                        normal)
                rec.mode_errors, idx = paired_mode_errors(
                    rec.result, rec.truth_vals, candidates=candidates)
                rec.aligned_est_vals = np.where(
                    idx >= 0, np.abs(rec.result.values[idx]), 0.0)
                valid = idx >= 0
                rec.vec_errors = np.full(count, np.nan)
                rec.vec_errors[valid] = align_eigenvectors_ols(
                    F[:, valid], rec.result.vectors[:, idx[valid]],
                    None if normal is None else np.diag(normal)[valid])
            rec.wall_time = time.perf_counter() - t0
            runs.append(rec)

    convergence = []
    for N in config.N_list:
        errs = [np.mean(r.mode_errors) for r in runs
                if r.N == N and r.mode_errors is not None]
        ferrs = [r.field_error for r in runs
                 if r.N == N and r.field_error is not None]
        if errs:
            convergence.append((N, float(np.mean(errs))))
        elif ferrs:
            convergence.append((N, float(np.mean(ferrs))))
    slope = None
    if len(convergence) >= 3 and all(e > 0 for _n, e in convergence):
        slope = fit_convergence_slope(convergence)
    return Report(config=config, runs=runs, convergence=convergence,
                  slope=slope)


def fit_convergence_slope(table):
    """Least-squares slope of log(error) against log(N)."""
    table = list(table)
    if len(table) < 3:
        raise ValueError("slope fit needs at least three (N, error) pairs")
    N = np.array([row[0] for row in table], dtype=float)
    err = np.array([row[1] for row in table], dtype=float)
    if np.any(err <= 0):
        raise ValueError("errors must be positive for a log-log fit")
    return float(np.polyfit(np.log(N), np.log(err), 1)[0])
