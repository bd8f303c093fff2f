"""Desk-scale numerical lab for regularized p-Laplace minimization.

Submodules:

* :mod:`plapreg.fields` - grids, scalar/vector fields, the node gradient,
  interior boxes, and every JSON and CSV writer.
* :mod:`plapreg.pointwise` - the regularized length, energy density and
  its derivatives, the power transforms, and algebraic certificates.
* :mod:`plapreg.solver` - damped Newton minimization of the discrete
  energy with eps continuation.
* :mod:`plapreg.smoothness` - Nikol'skii and Sobolev seminorms, shift
  difference quotients, log-log exponent fits.
* :mod:`plapreg.experiments` - the exact torsion-type oracle, exponent
  table verification, eps sweeps and scaling checks.
* :mod:`plapreg.cli` - the ``plapreg`` command line front end.
"""

from .fields import (
    Grid,
    ScalarField,
    VectorField,
    gradient,
    interior_box,
    read_field_csv,
    read_grid_json,
    write_field_csv,
    write_grid_json,
)
from .pointwise import (
    PLapParams,
    L_eps,
    alpha_s,
    beta_theta,
    coercivity_constant,
    grad_L_eps,
    hess_L_eps,
    integrand_lower_bound_check,
    l_eps,
    monotonicity_gap,
)
from .solver import (
    ProblemSpec,
    SolveResult,
    SolverError,
    el_residual,
    energy,
    solve,
)
from .smoothness import (
    SeminormReport,
    composition_bound_check,
    dyadic_shifts,
    fit_smoothness_exponent,
    nikolskii_seminorm,
    shift_difference_norm,
    sobolev_w12_norm,
    sobolev_w12_seminorm,
    sobolev_w1p_norm,
)
from .experiments import (
    ScalingReport,
    SharpnessOracle,
    SweepResult,
    Theorem1Report,
    oracle_fields,
    oracle_problem,
    run_eps_sweep,
    run_scaling_check,
    run_theorem1_check,
    table_exponent,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "gradient",
    "interior_box",
    "read_field_csv",
    "read_grid_json",
    "write_field_csv",
    "write_grid_json",
    "PLapParams",
    "L_eps",
    "alpha_s",
    "beta_theta",
    "coercivity_constant",
    "grad_L_eps",
    "hess_L_eps",
    "integrand_lower_bound_check",
    "l_eps",
    "monotonicity_gap",
    "ProblemSpec",
    "SolveResult",
    "SolverError",
    "el_residual",
    "energy",
    "solve",
    "SeminormReport",
    "composition_bound_check",
    "dyadic_shifts",
    "fit_smoothness_exponent",
    "nikolskii_seminorm",
    "shift_difference_norm",
    "sobolev_w12_norm",
    "sobolev_w12_seminorm",
    "sobolev_w1p_norm",
    "ScalingReport",
    "SharpnessOracle",
    "SweepResult",
    "Theorem1Report",
    "oracle_fields",
    "oracle_problem",
    "run_eps_sweep",
    "run_scaling_check",
    "run_theorem1_check",
    "table_exponent",
    "__version__",
]
