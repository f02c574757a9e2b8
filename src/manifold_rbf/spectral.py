"""Eigen-solvers, mode ordering and selection, alignment against truth.

Non-symmetric operators get a full dense complex eigendecomposition with
modes ordered by ascending magnitude (ties broken by real then imaginary
part); symmetric pencils are diagonally scaled (or Cholesky-reduced) and
solved with the dense symmetric solver, and a pencil on frame coordinates
has its eigenvectors lifted by its range basis. Near-zero modes produced by
pseudo-inverse rank truncation are reported but flagged trivial rather than
silently dropped.

Eigenvector error metric: relative discrete L2 norm after ordinary
least-squares alignment of the estimated modes onto the truth columns; this
factors out the arbitrary rotation inside repeated-eigenvalue clusters.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

SPECTRUM_SCHEMA = "spectrum-v1"
ALIGNMENT_SCHEMA = "alignment-v1"
VECTOR_ERROR_METRIC = "relative discrete L2 after OLS alignment"


@dataclass
class SpectralResult:
    values: np.ndarray          # k selected eigenvalues, ascending
    vectors: np.ndarray         # (dim, k)
    ordering: str
    rank_L: int                 # modes above the trivial cutoff, full spectrum
    all_values: np.ndarray      # complete computed spectrum, same ordering
    trivial: np.ndarray         # flags for the k selected modes
    trivial_cutoff: float = 0.0

    def nontrivial_values(self):
        return self.values[~self.trivial]

    def nontrivial_vectors(self):
        return self.vectors[:, ~self.trivial]


def _trivial_cutoff(all_values, pinv_tol):
    scale = float(np.max(np.abs(all_values))) if len(all_values) else 0.0
    return 10.0 * pinv_tol * scale


def solve_symmetric(pair, k, pinv_tol=1e-8):
    """k smallest eigenvalues of the symmetric pencil, B-orthonormal vectors.

    With a range basis W the pencil lives on frame coordinates and the
    returned vectors are lifted to ambient components, V = W Z.
    """
    if pair.B_diag is not None:
        if np.any(pair.B_diag <= 0):
            raise ValueError("B must be positive definite (diagonal has "
                             "non-positive entries)")
        scale = 1.0 / np.sqrt(pair.B_diag)
        As = scale[:, None] * pair.A * scale[None, :]
        As = 0.5 * (As + As.T)
        lam, Z = scipy.linalg.eigh(As)
        V = scale[:, None] * Z
    else:
        try:
            lam, V = scipy.linalg.eigh(pair.A, 0.5 * (pair.B + pair.B.T))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"B is not positive definite: {exc}")
    if k > len(lam):
        raise ValueError(f"requested {k} modes from a rank-{len(lam)} pencil")
    V = V[:, :k]
    if pair.range_basis is not None:
        V = pair.range_basis @ V
    return symmetric_result(lam, V, pinv_tol)


def symmetric_result(all_values, vectors, pinv_tol):
    """SpectralResult of a real spectrum in ascending order whose leading
    vectors.shape[1] modes were kept."""
    cutoff = _trivial_cutoff(all_values, pinv_tol)
    values = all_values[:vectors.shape[1]]
    return SpectralResult(values=values, vectors=vectors,
                          ordering="by_real_ascending",
                          rank_L=int(np.sum(np.abs(all_values) >= cutoff)),
                          all_values=all_values,
                          trivial=np.abs(values) < cutoff,
                          trivial_cutoff=cutoff)


def solve_nonsymmetric(L, k, pinv_tol=1e-8):
    """k smallest-magnitude eigenvalues of a dense real operator.

    The full complex spectrum is retained on the result so spectral
    pollution can be inspected afterwards.
    """
    if L.shape[0] != L.shape[1]:
        raise ValueError("operator must be square")
    lam, V = np.linalg.eig(L)
    order = np.lexsort((lam.imag, lam.real, np.abs(lam)))
    lam = lam[order]
    V = V[:, order]
    if k > len(lam):
        raise ValueError(f"requested {k} modes of a {len(lam)}-dim operator")
    cutoff = _trivial_cutoff(lam, pinv_tol)
    values = lam[:k]
    return SpectralResult(values=values, vectors=V[:, :k],
                          ordering="by_magnitude_ascending",
                          rank_L=int(np.sum(np.abs(lam) >= cutoff)),
                          all_values=lam,
                          trivial=np.abs(values) < cutoff,
                          trivial_cutoff=cutoff)


@dataclass
class AlignmentReport:
    beta: np.ndarray
    aligned: np.ndarray
    per_mode_error: np.ndarray
    metric: str = VECTOR_ERROR_METRIC


def align_eigenvectors_ols(F, U):
    """Regress truth columns F onto estimated columns U: V = U (U^+ F).

    Columns of the aligned output lie in span(U); per-mode errors are
    ||F_j - V_j|| / ||F_j|| in the discrete L2 norm (uniform weights cancel
    in the ratio).
    """
    F = np.asarray(F)
    U = np.asarray(U)
    if F.shape != U.shape:
        raise ValueError("truth and estimate must have matching shapes")
    beta, _res, rank, _sv = np.linalg.lstsq(U, F, rcond=None)
    if rank < U.shape[1]:
        warnings.warn(
            f"estimated eigenvector block is rank deficient ({rank} < "
            f"{U.shape[1]}); pseudo-inverse alignment used", RuntimeWarning)
    aligned = U @ beta
    num = np.linalg.norm(F - aligned, axis=0)
    den = np.linalg.norm(F, axis=0)
    if np.any(den == 0):
        raise ValueError("truth column with zero norm")
    return AlignmentReport(beta=beta, aligned=aligned,
                           per_mode_error=num / den)


def write_spectrum_csv(path, result, config_echo=None, extra_meta=None):
    """Full spectrum as CSV: mode, re, im, magnitude, trivial flag."""
    lam = np.asarray(result.all_values)
    rows = np.column_stack([
        np.arange(len(lam), dtype=float),
        lam.real,
        lam.imag if np.iscomplexobj(lam) else np.zeros(len(lam)),
        np.abs(lam),
        (np.abs(lam) < result.trivial_cutoff).astype(float),
    ])
    header = [f"schema={SPECTRUM_SCHEMA}",
              f"ordering={result.ordering} rank_L={result.rank_L}"]
    if config_echo is not None:
        header.append("config=" + json.dumps(config_echo, sort_keys=True))
    if extra_meta:
        header.append(extra_meta)
    header.append("mode,re,im,magnitude,trivial")
    np.savetxt(path, rows, fmt=["%d", "%.17g", "%.17g", "%.17g", "%d"],
               delimiter=",", header="\n".join(header))


def write_alignment_csv(path, truth_values, est_values, vec_errors,
                        config_echo=None):
    """Aligned-mode table: mode, truth eigenvalue, estimate, vector error."""
    truth_values = np.asarray(truth_values, dtype=float)
    est_values = np.abs(np.asarray(est_values))
    vec_errors = np.asarray(vec_errors, dtype=float)
    m = len(truth_values)
    rows = np.column_stack([np.arange(m, dtype=float), truth_values,
                            est_values[:m], vec_errors[:m]])
    header = [f"schema={ALIGNMENT_SCHEMA}",
              f"metric={VECTOR_ERROR_METRIC}"]
    if config_echo is not None:
        header.append("config=" + json.dumps(config_echo, sort_keys=True))
    header.append("mode,truth_value,est_value,vec_error")
    np.savetxt(path, rows, fmt=["%d", "%.17g", "%.17g", "%.17g"],
               delimiter=",", header="\n".join(header))
