"""Backward-error computation, estimation, and bounds for linear least
squares, with an LSMR harness that traces every estimate per iteration."""

from .core import (CompressedPair, LSProblem, MatrixOperator,
                   WeightedResidual, compress_pair, weighted_residual)
from .decomposition import (DecompositionWitness, brute_force_max,
                            decomposition_sum, optimal_pq)
from .estimates import (KWFactorization, RecycledDirection, kw,
                        kw_factorization, kw_multi, lb_direction, lb_refine,
                        mu_rank_one, pair_basis, sketched_kw, ub_deflation,
                        ub_generous)
from .exact import (MuResult, mu_all_methods, mu_exact, mu_fixed_point,
                    mu_gevp, mu_sigma_min)
from .pencil import (HyperbolicCS, JSignature, PencilEigen, hyperbolic_cs,
                     j_pencil_eig, tr_minus)
from .sketch import SketchOperator, apply_sketch, measure_distortion
from .solver import (TRACE_COLUMNS, SolverConfig, SolverTrace, TraceRow,
                     estimate_bounds, lsmr)

__version__ = "0.1.0"

__all__ = [
    "LSProblem", "WeightedResidual", "CompressedPair", "MatrixOperator",
    "weighted_residual", "compress_pair",
    "JSignature", "PencilEigen", "HyperbolicCS", "j_pencil_eig", "tr_minus",
    "hyperbolic_cs",
    "MuResult", "mu_exact", "mu_sigma_min", "mu_fixed_point", "mu_gevp",
    "mu_all_methods",
    "KWFactorization", "kw_factorization", "RecycledDirection",
    "mu_rank_one", "kw", "kw_multi", "sketched_kw", "lb_direction",
    "lb_refine", "ub_deflation", "ub_generous", "pair_basis",
    "DecompositionWitness", "optimal_pq", "decomposition_sum",
    "brute_force_max",
    "SketchOperator", "apply_sketch", "measure_distortion",
    "SolverConfig", "SolverTrace", "TraceRow", "TRACE_COLUMNS",
    "lsmr", "estimate_bounds",
    "__version__",
]
