"""Numerical laboratory for homogenized surface energies of random second-order phase-transition functionals."""

__version__ = "0.1.0"

import os
import sys

# One BLAS thread unless the user says otherwise.  The descent's dense products
# are small; OpenBLAS's default pool spins on every core for no wall gain.  The
# variables are read when numpy loads, so this holds only where homlab imports
# numpy first (`python -m homlab`, the `homlab` script, the tests).  Where numpy
# was loaded before homlab, they are left as they are.  BLAS_THREADS keeps, for
# each run's manifest, the values numpy's BLAS read: None for a variable that
# was unset then (the BLAS default, one thread per core for OpenBLAS).
_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules:
    BLAS_THREADS = {var: os.environ.get(var) for var in _BLAS_VARIABLES}
else:
    BLAS_THREADS = {var: os.environ.setdefault(var, "1") for var in _BLAS_VARIABLES}

from .core import (
    DoubleWell,
    TransitionProfile,
    compute_c_eta,
)
from .geometry import (
    Direction,
    LatticeCuboid,
    LatticeIncompatibleError,
    OrientedCube,
    integer_rotation,
    m_nu_for,
    rotation_for,
)
from .environment import (
    Environment,
    EnvironmentSpec,
    growth_violations,
    make_environment,
    shift_environment,
)
from .grids import (
    EnergyParams,
    GridField,
    ResolutionError,
    discrete_gradient,
    discrete_hessian,
)
from .solve import DivergenceError, SolveResult, SolverConfig, solve_many
from .cell import (
    BoundsReport,
    Cell,
    CellRecord,
    EstimateError,
    FHomEstimate,
    MuSample,
    PositivityReport,
    SigmaEstimate,
    bounds_check,
    cell_problems_r,
    mu_nu,
    sigma_pair,
    verify_positivity,
)
