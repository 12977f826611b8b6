"""Solvers and extreme-point decomposition audits for convex-regularized
inverse problems."""

__version__ = "0.1.0"

from .audit import (LinealityReport, RegularizerSpec, RepresenterCertificate,
                    audit, decompose_solution, lineality_of)
from .finite import (AnalysisReport, LpProblem, LpSolution, MatrixProblem,
                     barvinok_bound, l1_analysis_solve, nnls_solve,
                     nuclear_min_solve, psd_solve, rank1_atomic_decomposition,
                     rank_reduce_psd, simplex_solve)
from .geometry import (AtomicDecomposition, FaceReport, HPolyhedron,
                       birkhoff_decompose, caratheodory_reduce,
                       enumerate_slice_extreme_points, is_extreme_point,
                       klee_atom_count, klee_reduce, minimal_face)
from .linalg import (SvdResult, lstsq, null_space_basis, op_norm_estimate,
                     pseudo_inverse, rank, svd)
from .measure import (DiscreteMeasure, MomentSystem, beurling_solve,
                      merge_atoms, moment_lp_solve, moments_of,
                      monomial_system, trigonometric_system)
from .tv2d import (ConvergenceTrace, DiskSet, LevelSetReport,
                   chambolle_pock_tv_solve, discrete_tv, disk_average_adjoint,
                   disk_average_apply, level_set_report)
