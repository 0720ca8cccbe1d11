"""Communication lower bounds for parallel matrix multiplication.

Memory-independent lower bounds on the words a processor must send or
receive when P processors multiply an n1 x n2 by an n2 x n3 matrix, the
KKT machinery certifying the underlying constrained minimization, grid
selection for the 3D algorithm (which attains the bound), an exact
message-counting simulator, and exact projection oracles for tiny
problems.  The package exports the names of the README's quick start; every
other name is imported from its module.
"""

from .bounds import ProblemShape, lower_bound
from .grids import ProcessorGrid, analytic_grid, comm_cost
from .kkt import OptProblem, analytic_solution, kkt_verify
from .simulate import run_algorithm

__version__ = "0.1.0"

__all__ = [
    "OptProblem",
    "ProblemShape",
    "ProcessorGrid",
    "analytic_grid",
    "analytic_solution",
    "comm_cost",
    "kkt_verify",
    "lower_bound",
    "run_algorithm",
]
