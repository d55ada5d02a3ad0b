"""Numerical laboratory for homogenized surface energies of random second-order phase-transition functionals."""

__version__ = "0.1.0"

from .core import (
    DoubleWell,
    NoAnalyticDerivativeError,
    TransitionProfile,
    compute_c_eta,
    modica_mortola_sigma,
)
from .geometry import (
    Direction,
    LatticeCuboid,
    LatticeIncompatibleError,
    OrientedCube,
    integer_rotation,
    local_to_physical,
    m_nu_for,
    rotation_for,
)
from .environment import (
    Environment,
    EnvironmentSpec,
    density_eval,
    make_environment,
    shift_environment,
    verify_growth_bounds,
)
from .grids import (
    EnergyParams,
    GridField,
    ResolutionError,
    discrete_energy,
    discrete_energy_gradient,
    discrete_gradient,
    discrete_hessian,
    profile_field,
)
from .solve import DivergenceError, SolveResult, SolverConfig, glue_fields, minimize_energy
from .cell import (
    BoundsReport,
    CellRecord,
    EstimateError,
    FHomEstimate,
    MuSample,
    PositivityReport,
    SigmaEstimate,
    bounds_check,
    cell_problem_r,
    eps_scaled_cell,
    ergodic_average,
    f_hom_estimate,
    mu_nu,
    sigma_pair,
    sigma_pm,
    verify_positivity,
)
