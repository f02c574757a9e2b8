"""Mesh-free estimation of differential operators on embedded manifolds.

Point clouds on a smooth closed submanifold of R^n are turned into dense
operator matrices by global RBF interpolation differentiated along
per-point orthonormal tangent frames. The package covers the scalar
Laplacian, the covariant derivative, and the Bochner, Hodge and
Lichnerowicz Laplacians on vector fields, in both a non-symmetric
collocation form and a symmetric (generalized eigenproblem) form, plus a
graph-Laplacian baseline and a zoo of manifolds with analytic spectra for
validation.
"""

from .density import kde_density, silverman_bandwidth
from .dm import autotune_epsilon, dm_laplacian, dm_spectrum
from .harness import (ExperimentConfig, MemoryRefusal, Report, RunRecord,
                      alignment_gate, fit_convergence_slope,
                      paired_mode_errors, run_experiment)
from .rbf import (InterpolationSystem, KernelModel, build_system,
                  derivative_matrices, kernel_eval)
from .scalar_ops import (GeneralizedPair, ScalarOperatorSet,
                         build_grad_matrices, laplace_beltrami_nonsymmetric,
                         laplace_beltrami_symmetric)
from .spectral import (SpectralResult, align_eigenvectors_ols, lift,
                       solve_nonsymmetric, solve_symmetric,
                       write_alignment_csv, write_spectrum_csv)
from .tangent import (ProjectionField, default_neighbor_count,
                      first_order_svd, knn_indices, projection_diagnostics,
                      second_order_svd)
from .vector_ops import (bochner, covariant_derivative, hodge, lichnerowicz,
                         stacked, tangent_range_basis)
from .zoo import (Ellipse, EigenTruth, FlatTorus, GeneralTorus, ManifoldSpec,
                  PointCloud, Sphere, Torus, analytic_projection,
                  sample_manifold, sampling_density, scalar_eigen_truth,
                  sturm_liouville_truth, vector_eigen_truth)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
