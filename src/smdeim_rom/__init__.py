"""Model order reduction with sparse-matrix interpolation of Jacobians.

Projection-based reduced models for implicitly time-stepped PDEs where the
Newton matrix is approximated online from a handful of sampled entries of
the sparse full-order Jacobian.  The offline stage factors only the matrix
of values gathered at the fixed sparsity pattern, so its cost scales with
the pattern size r instead of n^2; the online stage reconstructs reduced
k-by-k Jacobians in O(k^2 m) work, independent of n.

Layout:

* linalg, snapshots, pod, deim - numerical kernels: thin SVD and dense LU,
  pattern gather/scatter, basis truncation, greedy interpolation indexes.
* stats - the Newton stage loop shared by the full-order and reduced
  solvers, with its iteration statistics and typed failure.
* jacobian_approx - the sparse interpolation route plus the vectorized
  reference oracle and their equivalence checks.
* rom - reduced models with six interchangeable Jacobian strategies.
* models - 1D viscous advection and 2D rotating shallow water benchmarks.
* io - binary persistence for offline/online decoupling.
* bench - config-driven benchmark CLI (results.csv + TSV plot series).
"""

from . import instrumentation
from .deim import (
    DeimInterpolant,
    DependentColumnsError,
    deim_error_bound,
    deim_indexes,
    deim_interpolant,
)
from .jacobian_approx import (
    Lemma2Report,
    MatrixInterpolant,
    MemoryGuardError,
    RankError,
    approximate_matrix,
    build_mdeim_reference,
    build_smdeim,
    deim_function_jacobian,
    guard_limit,
    sample_and_approximate,
    verify_lemma2,
)
from .linalg import (
    SingularMatrixError,
    SvdConvergenceError,
    SvdResult,
    solve_dense,
    thin_svd,
)
from .models import FullModel, ImplicitStage, QuadraticOperator, full_solve
from .models.burgers import build_burgers
from .models.swe import build_swe
from .pod import PodBasis, energy_fraction, pod_basis
from .rom import (
    STRATEGIES,
    ReducedModel,
    TensorCore,
    build_tensor_core,
    reduce_model,
    reduced_jacobian,
    reduced_residual,
    rom_solve,
)
from .snapshots import (
    PatternViolationError,
    SnapshotSet,
    SparsityPattern,
    build_pattern,
    gather,
    pattern_union,
    scatter,
)
from .stats import NewtonConvergenceError, NewtonStats

__version__ = "0.1.0"

__all__ = [
    "instrumentation",
    "DeimInterpolant",
    "DependentColumnsError",
    "deim_error_bound",
    "deim_indexes",
    "deim_interpolant",
    "Lemma2Report",
    "MatrixInterpolant",
    "MemoryGuardError",
    "RankError",
    "approximate_matrix",
    "build_mdeim_reference",
    "build_smdeim",
    "deim_function_jacobian",
    "guard_limit",
    "sample_and_approximate",
    "verify_lemma2",
    "SingularMatrixError",
    "SvdConvergenceError",
    "SvdResult",
    "solve_dense",
    "thin_svd",
    "FullModel",
    "ImplicitStage",
    "QuadraticOperator",
    "full_solve",
    "build_burgers",
    "build_swe",
    "PodBasis",
    "energy_fraction",
    "pod_basis",
    "STRATEGIES",
    "ReducedModel",
    "TensorCore",
    "build_tensor_core",
    "reduce_model",
    "reduced_jacobian",
    "reduced_residual",
    "rom_solve",
    "PatternViolationError",
    "SnapshotSet",
    "SparsityPattern",
    "build_pattern",
    "gather",
    "pattern_union",
    "scatter",
    "NewtonConvergenceError",
    "NewtonStats",
    "__version__",
]
