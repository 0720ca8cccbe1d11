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
    ProblemShape,
    Regime,
    RegimeTag,
    accessed_data,
    classify_regime,
    lower_bound,
    prior_constants,
)
from .exact import decimal_str, human_str
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
    analytic_solution,
    analytic_solution_for_case,
    kkt_verify,
    objective,
)
from .projections import (
    MinProjectionResult,
    min_projection_sum,
    subset_stats,
)
from .simulate import (
    SimReport,
    ring_all_gather,
    ring_reduce_scatter,
    run_algorithm,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticGridResult",
    "BoundReport",
    "CostBreakdown",
    "KKTReport",
    "MinProjectionResult",
    "OptProblem",
    "OptSolution",
    "ProblemShape",
    "ProcessorGrid",
    "Regime",
    "RegimeTag",
    "SimReport",
    "accessed_data",
    "analytic_grid",
    "analytic_solution",
    "analytic_solution_for_case",
    "classify_regime",
    "comm_cost",
    "decimal_str",
    "exhaustive_grid",
    "factor_triples",
    "human_str",
    "kkt_verify",
    "lower_bound",
    "min_projection_sum",
    "objective",
    "prior_constants",
    "ring_all_gather",
    "ring_reduce_scatter",
    "run_algorithm",
    "subset_stats",
]
