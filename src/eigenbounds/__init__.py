"""Certified bounds for the smallest eigenvalue of affine Hermitian families.

The package implements the successive constraint method (sampled
Rayleigh-quotient upper bounds, LP lower bounds over a spectral bounding
box) and its subspace-accelerated variant (Ritz upper bounds from pooled
eigenvectors, quadratic-residual lower bounds with an LP-tightened gap
estimate), plus transforms for coercivity constants and smallest singular
values.
"""

from .expressions import EvaluationError, ParseError, ThetaExpression, parse_theta
from .family import (AffineFamily, BoundingBox, TrainingSet,
                     compute_bounding_box, joint_rayleigh,
                     random_training_set)
from .hermitian import (ArgumentError, DenseHermitian, EigenPairs,
                        EigensolverError, HermitianOperator,
                        NotPositiveDefiniteError, SparseHermitian, SpdFactor,
                        cholesky, dense_smallest, extreme_eigs, hermitian,
                        smallest_eigpairs)
from .lp import (InfeasibleError, LPError, LPProblem, LPSolution,
                 TightenedBound, dual_bound, first_certified_vertex,
                 lp_minimize, tighten_and_resolve)
from .mmio import MMFormatError, MMHeader, read_matrix_market, write_matrix_market
from .problems import (ManifestError, block_grid_family, coercivity_transform,
                       load_family, one_parameter_analytic_family,
                       random_family, singular_value_expansion,
                       unit_circle_family)
from .scm import (GreedyError, GreedyRecord, GreedyResult, ScmState,
                  error_ratio, lower_bound, scm_greedy, solve_at_sample,
                  upper_bound, worst_case_family)
from .subspace import (RitzData, SubspacePool, SweepBounds, append_sample,
                       beta_gap, f_bound, residual_heuristic_bound,
                       residual_norm, ritz_upper_bound, subspace_greedy,
                       subspace_lower_bound, sweep_bounds)

__version__ = "0.1.0"
