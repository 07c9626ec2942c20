"""poisson-grad: direct minimization and certification of periodic
Poisson-gradient systems laplacian(u) = grad F(t, u) on multi-time grids."""

__version__ = "0.1.0"

from .action import ActionValue, action, action_gradient, continuity_bound
from .expr import ExpressionPotential, eval_dual, parse, pretty, tokenize
from .grid import (
    Field,
    GridSpec,
    forward_diff,
    l2_inner,
    l2_norm,
    laplacian,
    mean,
    node_coordinates,
    solve_linear_poisson,
    split_mean,
)
from .potential import (
    CosineLattice,
    GrowthEnvelope,
    LinearForcing,
    Potential,
    Sample,
    SampleSpec,
    ShiftedQuadratic,
    check_grad_consistency,
    check_gradient_growth,
    check_periodicity,
    check_positivity,
)
from .solver import (
    RunReport,
    SolverConfig,
    canonicalize,
    check_minimizing_bounds,
    minimize,
    random_init,
)
from .verify import boundary_check, el_residual, wirtinger_check, wirtinger_constant

__all__ = [
    "__version__",
    "ActionValue",
    "action",
    "action_gradient",
    "continuity_bound",
    "ExpressionPotential",
    "eval_dual",
    "parse",
    "pretty",
    "tokenize",
    "Field",
    "GridSpec",
    "forward_diff",
    "l2_inner",
    "l2_norm",
    "laplacian",
    "mean",
    "node_coordinates",
    "solve_linear_poisson",
    "split_mean",
    "CosineLattice",
    "GrowthEnvelope",
    "LinearForcing",
    "Potential",
    "Sample",
    "SampleSpec",
    "ShiftedQuadratic",
    "check_grad_consistency",
    "check_gradient_growth",
    "check_periodicity",
    "check_positivity",
    "RunReport",
    "SolverConfig",
    "canonicalize",
    "check_minimizing_bounds",
    "minimize",
    "random_init",
    "boundary_check",
    "el_residual",
    "wirtinger_check",
    "wirtinger_constant",
]
