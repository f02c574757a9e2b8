"""Eigen-solvers, mode ordering and selection, alignment against truth.

Every operator ends in the truncated pseudo-inverse Phi^+ = U diag(1/w) U^T
(U is N x r), so it arrives factored and is solved at its reduced size: AB
and BA share their nonzero spectrum (Horn & Johnson, Matrix Analysis,
Thm 1.3.22). A non-symmetric operator, F U^T on a scalar field or
F (I_n kron U^T) W on the frame coordinates of a vector field, gets a dense
complex eigendecomposition of the matrix it induces on an orthonormal basis
of the range of F (a Householder QR), modes ordered by ascending magnitude
(ties broken by real then imaginary part). A symmetric pencil (R A R^T, B)
with diagonal B is solved with the dense symmetric solver on the range of
S = B^{-1/2} R, so the lifted vectors are B-orthonormal. The eigenvectors
of a vector operator, of either form, stay on its frame coordinates (d
values per point): the caller lifts them with lift(proj.frames, V) only if
it needs ambient components (harness.frame_truth scores them where they
are). The full dimension (N; n N for an NRBF vector operator, d N for an
SRBF vector pencil) minus the reduced one gives exact structural zeros:
never computed and without eigenvectors, they appear in all_values as 0.0,
flagged trivial, like the near-zero modes of pseudo-inverse truncation.

W, the n N x d N range basis of the frames T (N, n, d), maps frame
coordinates to stacked ambient components; its entry ((i, k), (a, k)) is
T(x_k)[i, a]. No solve or study forms it: lift(T, Z) is W Z,
lift(T.transpose(0, 2, 1), F) is W^T F and lift(T[:, i:i + 1], Z) is row
block i of W Z, each one einsum that sums a row's terms in the order a
sparse product with W does; the tests hold all three to it bit for bit.

How the range of S is reduced depends on the kind of pencil:
- Scalar pencils (no range basis) have R = U with orthonormal columns, so
  S^T S = U^T B^{-1} U is SPD with condition number at most max B / min B.
  One Cholesky factor S^T S = C C^T reduces the pencil exactly to
  C^T A C, the textbook reduction of a symmetric-definite pencil (Golub &
  Van Loan, Matrix Computations, 4th ed., Sec. 8.7). S C^{-T} is then
  orthonormal to about eps * kappa(S)^2 (the CholeskyQR bound of Fukaya et
  al., SIAM J. Sci. Comput. 42, 2020), which this condition number keeps
  at rounding level.
- Vector pencils (with a range basis) keep a Householder QR of S: their
  factor W^T (I_n kron U) is close to rank-deficient, because ambient
  fields normal to the manifold reach it only through the frames (sigma_min
  / sigma_max of S about 6e-10 on the sphere), and squaring that condition
  number in S^T S would lose orthogonality.

No QR forms its Q. _householder keeps it as its reflectors V, taken from
LAPACK's factored copy of the input, and M = T^{-1} of the compact-WY form
Q = I - V T V^T; _apply_q applies Q with two products and one triangular
solve. A vector pencil applies it to the lifted columns only. The
non-symmetric solve needs the whole thin Q for its reduced matrix and its
lift, and forms it once. Skipping LAPACK's explicit Q (orgqr) and the
copies numpy takes around it cut the solves of the sphere's Hodge operators
(N = 800 and 600, two cores) from 0.084 to 0.052 s (symmetric) and from
0.137 to 0.100 s (non-symmetric).

A vector operator's factor is close to rank-deficient, so the rows of its
reduced matrix Rf (I_n kron U^T) W Y follow the grading of Rf, and the
balancing LAPACK's geev always applies rescales them by up to 2^21; its
null-cluster eigenvectors came back with residuals of 1-2e-12 |L| (the
Hodge operator on 150 sphere points). The non-symmetric solve therefore
reduces a vector operator on the basis Q X, with the reflector
X = I - 2 u u^T, u = (1, ..., 1) / sqrt(c) for the c columns of Q, which
mixes every row and column: balancing then scales by at most 4 and every
residual sits near 2e-15 |L|. A scalar operator's residuals are at that
level without it (3e-15 to 1.2e-14 on the sphere and the torus), and its
spectrum keeps its exact ties.

Both solves lift eigenvectors only for the modes a caller reads: the
leading k nontrivial modes and the trivial ones before them. all_values
still holds every mode.

Each solver takes over the operator it is handed, and frees each part
before the eigensolve:
- a factor once its raw QR exists, before the reflectors are built;
- the unreduced symmetric form once it is reduced;
- a scalar pencil's Cholesky factor C: numpy.linalg.eigh reads only the
  lower triangle of its input (UPLO="L"), so C^T is kept in the strict
  upper triangle of the reduced form and its diagonal in a vector, and the
  lift unpacks C^T there, in place;
- the non-symmetric reflectors once the thin Q is formed.
The scalar reduction also orders its buffers: the reduced form's is taken
first, and S = B^{-1/2} R goes before the Cholesky factor is formed, so
glibc's heap holds U, the reduced form and then one free run, into which
eigh's copy and work fit. On the n = 21 general torus (N = 1200,
r = 1042; two cores, two BLAS threads) this left the process peak at that
of Phi's eigh, 120.5 MiB, where freeing the same arrays in the order they
fall due read 127.6 MiB.
Neither solver writes to its arguments: an operator its caller still
holds stays intact, and alive. The saving needs the caller to pass the
operator as a temporary (see harness._solve_rbf), and CPython >= 3.11,
which moves call arguments into the callee's frame; older versions keep
them on the caller's stack until the call returns, and the peak with them.

Eigenvector error metric: relative discrete L2 norm after ordinary
least-squares alignment of the estimated modes onto the truth columns; this
factors out the arbitrary rotation inside repeated-eigenvalue clusters.

QR, Cholesky and dense eigensolves use numpy.linalg, the package's one
dense-LAPACK provider, so one OpenBLAS thread pool serves them and the
matmuls (see rbf). One call writes over its input: _eigh_in_place, for
Phi in rbf.build_system, where numpy.linalg.eigh would write the
eigenvectors into a new n x n array beside its input. It calls the LAPACK
gufunc numpy.linalg.eigh calls, with the same error state, and holds
LAPACK's copy and work outside tracemalloc as that call does.
numpy.linalg._umath_linalg is private: the tests hold the helper to
numpy.linalg.eigh bit for bit, and to writing in place.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass
class SpectralResult:
    """Leading modes of one solve plus its spectrum.

    all_values is the full spectrum of an RBF operator, structural zeros
    included. values and vectors hold the leading modes that were lifted:
    the leading k nontrivial modes a solve was asked for and the trivial
    ones before them. A sparse solve that computes only the k leading
    modes (the diffusion-maps baseline) holds just those k in all_values;
    rank_L and solve_dim then count computed modes, and the trivial cutoff
    comes from the largest eigenvalue, solved for separately.
    """

    values: np.ndarray          # leading computed eigenvalues, m of them
    # (dim, m): N values for a scalar field, d N frame coordinates for a
    # vector field, lifted to ambient components by
    # lift(proj.frames, vectors)
    vectors: np.ndarray
    ordering: str
    rank_L: int                 # modes of all_values above the trivial cutoff
    all_values: np.ndarray      # computed modes and structural zeros, ordered
    trivial: np.ndarray         # flags for the m lifted modes
    trivial_cutoff: float = 0.0
    structural_zeros: int = 0   # exact zeros of all_values never computed

    @property
    def solve_dim(self):
        """Size of the eigenproblem actually solved."""
        return len(self.all_values) - self.structural_zeros

    def nontrivial_values(self):
        return self.values[~self.trivial]


def _trivial_cutoff(all_values, pinv_tol, radius=None):
    if radius is None:
        radius = float(np.max(np.abs(all_values))) if len(all_values) \
            else 0.0
    return 10.0 * pinv_tol * radius


def lift(frames, Z):
    """W Z: frame coordinates Z (d N rows) lifted over the frames (N, n, d)
    to stacked ambient components (see the module notes)."""
    N, n, d = frames.shape
    return np.einsum("kia,akc->ikc", frames, Z.reshape(d, N, -1)).reshape(
        (n * N,) + Z.shape[1:])


def _check_count(k, dim):
    if k > dim:
        raise ValueError(f"requested {k} modes of a {dim}-dim operator")


def _lift_count(values, k, pinv_tol):
    """Number of the ascending values before their (k+1)-th nontrivial one:
    the leading k nontrivial modes and the trivial ones among them."""
    nontrivial = np.flatnonzero(
        np.abs(values) >= _trivial_cutoff(values, pinv_tol))
    return nontrivial[k] if k < len(nontrivial) else len(values)


def _eigh_in_place(A):
    """(w, A): np.linalg.eigh(A) of a symmetric float64 A (its lower
    triangle), bit for bit, with the eigenvectors written over A. The same
    gufunc, LAPACK syevd and error state as np.linalg.eigh, whose output
    buffer would be a second n x n array beside A (see the module notes)."""
    def fail(_err, _flag):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    w = np.empty(len(A))
    with np.errstate(call=fail, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        np.linalg._umath_linalg.eigh_lo(A, out=(w, A), signature="d->dd")
    return w, A


def _back_substitute(T, Z):
    """T^{-1} Z for an upper-triangular T, one diagonal block of 128 rows at
    a time from the bottom. np.linalg.solve would run an LU of the whole of
    T, O(n^3), where this costs O(n^2 k) for k columns: 8 ms against 33 ms
    at n = 1128, k = 121 on two cores."""
    Y = np.empty(Z.shape)
    for lo in range((len(T) - 1) // 128 * 128, -1, -128):
        hi = lo + 128
        Y[lo:hi] = np.linalg.solve(T[lo:hi, lo:hi],
                                   Z[lo:hi] - T[lo:hi, hi:] @ Y[hi:])
    return Y


def _householder(h, tau):
    """Householder QR X = Q R of X (m x p), k = min(m, p), without forming
    Q, from its raw QR (h, tau) = np.linalg.qr(X, mode="raw"): the
    reflectors V (m x k, unit lower-trapezoidal), M = triu(V^T V, 1) +
    diag(1/tau) and R (k x p, bit for bit numpy's). Q = I - V M^{-1} V^T, M
    being the inverse of the compact-WY T (Schreiber & Van Loan, SIAM J.
    Sci. Stat. Comput. 10, 1989; Joffrain et al., ACM TOMS 32, 2006). A
    reflector with tau = 0 is the identity: its column of V is zero, its
    diagonal entry of M one. V is a view of h where it fills it (k = p), a
    copy of its k columns otherwise, so h goes once the caller drops it."""
    H = h.T                        # R on and above the diagonal, V below
    k = len(tau)
    R = np.triu(H[:k])
    V = H[:, :k] if k == H.shape[1] else H[:, :k].copy()
    upper = ~np.tri(k, k, -1, dtype=bool)
    V[:k][upper] = 0.0
    np.fill_diagonal(V, 1.0)
    V[:, tau == 0.0] = 0.0
    M = V.T @ V
    M[upper.T] = 0.0
    np.fill_diagonal(M, 1.0 / np.where(tau == 0.0, 1.0, tau))
    return V, M, R


def _apply_q(V, M, B):
    """Q [B; 0] for the Q = I - V M^{-1} V^T of _householder, B (k x c):
    the first c columns of the thin Q for B = I."""
    k = len(M)
    QB = V @ _back_substitute(M, V[:k].T @ B)
    np.negative(QB, out=QB)
    QB[:k] += B
    return QB


def _result(values, vectors, ordering, all_values, pinv_tol, zeros,
            radius=None):
    cutoff = _trivial_cutoff(all_values, pinv_tol, radius)
    return SpectralResult(values=values, vectors=vectors, ordering=ordering,
                          rank_L=int(np.sum(np.abs(all_values) >= cutoff)),
                          all_values=all_values,
                          trivial=np.abs(values) < cutoff,
                          trivial_cutoff=cutoff, structural_zeros=zeros)


def solve_symmetric(pair, k, pinv_tol=1e-8):
    """Ascending computed eigenvalues of the symmetric pencil, with
    B-orthonormal vectors for its leading k nontrivial modes and the
    trivial ones before them.

    The pencil (R A R^T, B) with factor R is reduced on the range of
    S = B^{-1/2} R. A scalar pencil (no range basis) takes the Cholesky
    factor S^T S = C C^T, solves C^T A C z = lambda z and lifts z to
    B^{-1/2} S C^{-T} z. A vector pencil takes the Householder QR
    S = Q Rx, solves Rx A Rx^T z = lambda z and lifts z to B^{-1/2} Q [z; 0]
    with Q applied from its reflectors, on the pencil's frame coordinates
    (see the module notes for why the two differ). k may not exceed the
    pencil's dimension.
    """
    b, A, R = pair.B_diag, pair.A, pair.factor
    scalar = pair.range_basis is None
    del pair                       # see the module notes on the hand-over
    if not np.all((b > 0) & (b < np.inf)):
        raise ValueError("B must be positive definite (diagonal has "
                         "non-positive or non-finite entries)")
    _check_count(k, len(b))
    scale = 1.0 / np.sqrt(b)
    if scalar:
        # the reduced form's buffer is taken before the reduction's
        # temporaries (see the module notes on the hand-over)
        reduced = np.empty(A.shape)
        S = scale[:, None] * R
        gram = S.T @ S
        del S                      # rebuilt for the lift, after the eigh
        C = np.linalg.cholesky(gram)
        del gram
        A = np.matmul(C.T, A @ C, out=reduced)
    else:
        h, tau = np.linalg.qr(scale[:, None] * R, mode="raw")
        del R                      # the lift goes through the reflectors
        H, M, Rx = _householder(h, tau)
        del h
        A = Rx @ A @ Rx.T
        del Rx
    # the reduced form is this solve's own: symmetrise it in place
    A += A.T
    A *= 0.5
    if scalar:
        # C^T waits in the strict upper triangle, which eigh does not read,
        # and its diagonal in a vector (see the module notes)
        np.copyto(A, C.T, where=~np.tri(len(A), dtype=bool))
        diag = C.diagonal().copy()
        del C
    lam, Z = np.linalg.eigh(A, UPLO="L")
    Z = Z[:, :_lift_count(lam, k, pinv_tol)]
    if scalar:
        A[np.tri(len(A), dtype=bool)] = 0.0
        np.fill_diagonal(A, diag)              # A is C^T again
        V = (scale[:, None] * R) @ _back_substitute(A, Z)
    else:
        del A
        V = _apply_q(H, M, Z)
    V *= scale[:, None]
    return symmetric_result(lam, V, pinv_tol, len(b) - len(lam))


def symmetric_result(values, vectors, pinv_tol, structural_zeros=0,
                     radius=None):
    """SpectralResult of computed real values in ascending order whose
    leading vectors.shape[1] modes were kept; the structural zeros are
    merged into all_values at their place in the order. radius is the
    largest |eigenvalue| when values hold only part of the spectrum."""
    all_values = np.insert(values, np.searchsorted(values, 0.0),
                           np.zeros(structural_zeros))
    return _result(values[:vectors.shape[1]], vectors, "by_real_ascending",
                   all_values, pinv_tol, structural_zeros, radius)


def solve_nonsymmetric(L, basis, k, pinv_tol=1e-8, range_basis=None):
    """Computed eigenvalues of a real operator by ascending magnitude, with
    unit eigenvectors for its leading k nontrivial modes and the trivial
    ones before them.

    L is the left factor of one of two operators, with U = basis (N, r):
    a scalar operator L U^T, L of shape (N, r) (a square operator L comes
    with basis = I); or a vector operator on frame coordinates
    L (I_n kron U^T) W, L of shape (d N, n r), with W the range basis of
    the frames range_basis (N, n, d) (see the module notes), whose
    eigenvectors are frame coordinates, lifted to ambient components by
    lift(range_basis, V). For a thin QR L = Y Rf (Y formed from the
    reflectors of L) the range of Y is invariant, the operator acts on it
    as Rf U^T Y or Rf (I_n kron U^T) W Y, and an eigenvector y lifts to the
    unit vector Y y with the residual of the small eigenproblem, as in a
    dense solve. The full complex spectrum, structural zeros included, is
    retained on the result, so spectral pollution can be inspected
    afterwards. k may not exceed d N (N for a scalar operator).
    """
    T, (N, r) = range_basis, basis.shape
    n, d = (1, 1) if T is None else T.shape[1:]
    if L.shape != (d * N, n * r) or (T is not None and len(T) != N):
        raise ValueError("operator factor does not match the basis")
    _check_count(k, len(L))
    zeros = n * N - min(L.shape)
    h, tau = np.linalg.qr(L, mode="raw")
    del L                          # see the module notes on the hand-over
    H, M, Rf = _householder(h, tau)
    del h
    mix = 0.0
    if T is not None:
        # F = (Q X) (X Rf) with X = I - 2 u u^T, u = (1, ..., 1) / sqrt(c)
        # for c = len(M): X Rf is Rf less 2 / c of its column sums (see the
        # module notes)
        mix = 2.0 / len(M)
        Rf -= mix * Rf.sum(axis=0)
    Y = _apply_q(H, M, np.eye(len(M)) - mix)
    del H, M
    # U^T Y, or (I_n kron U^T) W Y with W Y formed one component at a time
    UWY = np.empty((n * r, Y.shape[1]))
    for i in range(n):
        UWY[i * r:(i + 1) * r] = basis.T @ (
            Y if T is None else lift(T[:, i:i + 1], Y))
    A = Rf @ UWY
    del Rf, UWY
    lam, V = np.linalg.eig(A)
    del A
    order = np.lexsort((lam.imag, lam.real, np.abs(lam)))
    lam = lam[order]
    order = order[:_lift_count(lam, k, pinv_tol)]
    # interleaved re/im in mode order, gathered straight from the unordered
    # V: one real product into one buffer, no sorted or complex Y copy
    parts = np.empty((len(V), 2 * len(order)))
    np.take(V.real, order, axis=1, out=parts[:, 0::2], mode="clip")
    np.take(V.imag, order, axis=1, out=parts[:, 1::2], mode="clip")
    del V
    V = (Y @ parts).view(complex)
    del Y
    all_values = np.concatenate([np.zeros(zeros, dtype=lam.dtype), lam])
    return _result(lam[:len(order)], V, "by_magnitude_ascending",
                   all_values, pinv_tol, zeros)


def align_eigenvectors_ols(F, U, normal_sq=None):
    """Per-mode errors ||F_j - V_j|| / ||F_j|| of the truth columns F
    regressed onto the estimated columns U, V = U (U^+ F), in the discrete
    L2 norm (uniform weights cancel in the ratio); V lies in span(U).
    normal_sq holds the squared norms of the truth columns' parts that the
    coordinates of U cannot hold (harness.frame_truth): they add to both the
    squared error and the squared norm.
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
    num = np.linalg.norm(F - U @ beta, axis=0)
    den = np.linalg.norm(F, axis=0)
    if normal_sq is not None:
        num, den = np.sqrt(num ** 2 + normal_sq), np.sqrt(den ** 2 + normal_sq)
    if np.any(den == 0):
        raise ValueError("truth column with zero norm")
    return num / den


def write_table(target, schema, lines, columns, rows):
    """Write a table to a path or an open text file: `# schema=<schema>`,
    one `# ` line per dict of lines with its key=value pairs (a dict or list
    value as sorted JSON), the `# `-prefixed column names, then the rows,
    comma-separated, every value as %.17g (exact for a float64, an integral
    value as an integer). np.loadtxt(path, delimiter=",") reads it back."""
    header = [f"schema={schema}"]
    for line in lines:
        header.append(" ".join(
            f"{key}=" + (json.dumps(value, sort_keys=True)
                         if isinstance(value, (dict, list)) else str(value))
            for key, value in line.items()))
    header.append(",".join(columns))
    np.savetxt(target, np.reshape(rows, (-1, len(columns))), fmt="%.17g",
               delimiter=",", header="\n".join(header))


def write_spectrum_csv(path, result, config_echo):
    """Spectrum as CSV: mode, re, im, magnitude, trivial flag.

    One row per entry of result.all_values: the full spectrum of an RBF
    operator, the k computed leading modes of the diffusion-maps baseline.
    """
    lam = np.asarray(result.all_values)
    rows = np.column_stack([np.arange(len(lam)), lam.real, np.imag(lam),
                            np.abs(lam), np.abs(lam) < result.trivial_cutoff])
    write_table(path, "spectrum-v1",
                [{"ordering": result.ordering, "rank_L": result.rank_L,
                  "structural_zeros": result.structural_zeros,
                  "solve_dim": result.solve_dim},
                 {"config": config_echo}],
                ["mode", "re", "im", "magnitude", "trivial"], rows)


def write_alignment_csv(path, truth_values, est_values, vec_errors,
                        config_echo):
    """Aligned-mode table: mode, truth eigenvalue, |estimate|, vector
    error, one row per truth value."""
    m = len(truth_values)
    rows = np.column_stack([np.arange(m), truth_values,
                            np.abs(est_values)[:m], vec_errors[:m]])
    write_table(path, "alignment-v1",
                [{"metric": "relative discrete L2 after OLS alignment"},
                 {"config": config_echo}],
                ["mode", "truth_value", "est_value", "vec_error"], rows)
