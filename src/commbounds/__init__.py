"""Communication lower bounds for parallel matrix multiplication.

Memory-independent lower bounds on the words a processor must send or
receive when P processors multiply an n1 x n2 by an n2 x n3 matrix, the
KKT machinery certifying the underlying constrained minimization, grid
selection for the 3D algorithm (which attains the bound), an exact
message-counting simulator, and exact projection oracles for tiny
problems.
"""

from .bounds import (
    BoundReport,
    DominanceReport,
    MachineModel,
    ProblemShape,
    Regime,
    RegimeTag,
    accessed_data,
    bound_dominance,
    classify_regime,
    lower_bound,
    prior_constants,
    square_bound,
)
from .exact import decimal_str, human_str, values_agree
from .grids import (
    AnalyticGridResult,
    CostBreakdown,
    ProcessorGrid,
    analytic_grid,
    comm_cost,
    exhaustive_grid,
    factor_triples,
)
from .kkt import (
    KKTReport,
    OptProblem,
    OptSolution,
    QuasiconvexityReport,
    analytic_solution,
    analytic_solution_for_case,
    kkt_verify,
    numeric_minimize_oracle,
    objective,
    quasiconvexity_check,
)
from .projections import (
    MinProjectionResult,
    ProjectionCounts,
    ProjectionLBReport,
    WorkSet,
    min_projection_sum,
    projections_of,
    subset_stats,
    verify_loomis_whitney,
    verify_projection_lb,
)
from .simulate import (
    PredictionComparison,
    SimReport,
    build_machine,
    compare_to_prediction,
    estimate_time,
    ring_all_gather,
    ring_reduce_scatter,
    run_algorithm,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticGridResult",
    "BoundReport",
    "CostBreakdown",
    "DominanceReport",
    "KKTReport",
    "MachineModel",
    "MinProjectionResult",
    "OptProblem",
    "OptSolution",
    "PredictionComparison",
    "ProblemShape",
    "ProcessorGrid",
    "ProjectionCounts",
    "ProjectionLBReport",
    "QuasiconvexityReport",
    "Regime",
    "RegimeTag",
    "SimReport",
    "WorkSet",
    "accessed_data",
    "analytic_grid",
    "analytic_solution",
    "analytic_solution_for_case",
    "bound_dominance",
    "build_machine",
    "classify_regime",
    "comm_cost",
    "compare_to_prediction",
    "decimal_str",
    "estimate_time",
    "exhaustive_grid",
    "factor_triples",
    "human_str",
    "kkt_verify",
    "lower_bound",
    "min_projection_sum",
    "numeric_minimize_oracle",
    "objective",
    "prior_constants",
    "projections_of",
    "quasiconvexity_check",
    "ring_all_gather",
    "ring_reduce_scatter",
    "run_algorithm",
    "square_bound",
    "subset_stats",
    "values_agree",
    "verify_loomis_whitney",
    "verify_projection_lb",
]
