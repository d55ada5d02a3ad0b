"""Cell problems and limit objects: transition constants, slab process, homogenized density.

Every solved value here is an upper bound for the corresponding infimum; all
inequality checks downstream are phrased in the direction that upper bounds
preserve, with a stated slack for solver tolerance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .environment import Environment, EnvironmentSpec, make_environment
from .geometry import Direction, LatticeCuboid, OrientedCube
from .grids import (
    EnergyModel,
    EnergyParams,
    GridField,
    ResolutionError,
    box_grid,
    cube_grid,
    cuboid_grid,
    frame_width_for,
    profile_values,
)
from .solve import SolverConfig, SolveResult, solve_many

__all__ = [
    "EstimateError",
    "Cell",
    "CellRecord",
    "SigmaEstimate",
    "MuSample",
    "FHomEstimate",
    "PositivityReport",
    "BoundsReport",
    "sigma_pair",
    "cell_problems_r",
    "mu_nu",
    "glued_partition_energy",
    "f_hom_reduce",
    "verify_positivity",
    "bounds_check",
]

SOLVER_SLACK = 1e-6
BOUNDS_SLACK = 0.05
# most nodes on the unit slab's axis (h = eps/8: eps >= 1/256).  The descent's
# dense axis basis holds the square of its free length: building it raised peak
# RSS by 17 MB at 1016 free nodes (eps = 1/128) and by 65 MB at 2040 (1/256).
MAX_SLAB_NODES = 2048


class EstimateError(RuntimeError):
    """Raised when no converged solve is left to estimate from."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One frozen problem: the `variant` energy on `domain` (an OrientedCube or a LatticeCuboid) at epsilon, h.

    The datum is `_datum`'s.  `x0_index` is the index of the center a cube was expanded from.
    On a cube, nu = direction and r = side / epsilon; nu, r and x0_index name the cell in `work_id`.
    """

    env: Environment
    domain: OrientedCube | LatticeCuboid
    x0_index: int
    epsilon: float
    h: float
    variant: str = "general"

    @property
    def nu(self) -> Direction:
        return self.domain.direction

    @property
    def r(self) -> float:
        return self.domain.side / self.epsilon

    @property
    def seed(self) -> int:
        return self.env.spec.seed

    @property
    def work_id(self) -> str:
        return f"nu={self.nu.angle_degrees():g}/r={self.r:g}/x0={self.x0_index}"


@dataclass(frozen=True)
class CellRecord:
    """One solved cell: the `Cell` and the `SolveResult` its solve returned."""

    cell: Cell
    solve: SolveResult

    @property
    def m_hat(self) -> float:
        return self.solve.value

    @property
    def normalized(self) -> float:
        """m_hat / side^(n-1), an f_hom sample (cubes)."""
        return self.solve.value / self.cell.domain.side ** (self.cell.nu.n - 1)

    @property
    def converged(self) -> bool:
        return self.solve.converged


@dataclass
class SigmaEstimate:
    """Upper bound for one optimal transition constant, minimized over a scale grid.

    `solves` holds the SolveResult (slab field, stop reason) of every scale this variant solved.
    """

    variant: str
    value: float
    best_epsilon: float
    per_epsilon: dict
    solves: dict = field(repr=False)


@dataclass
class MuSample:
    """One evaluation of the subadditive slab process and the SolveResult of its cuboid."""

    value: float
    anomaly: bool
    solve: SolveResult


@dataclass
class FHomEstimate:
    """Per-seed extrapolated limits of normalized cell values plus spread diagnostics.

    `fit_r` maps every seed to the r values its limit was fitted over: its top
    three converged scales, [] where none converged (that seed has no limit).
    """

    nu: Direction
    estimate: float
    stderr: float
    per_seed_limit: dict
    x0_spread: dict
    fit_r: dict


@dataclass
class PositivityReport:
    """Free minima of the minus comparison energy; passed needs every start converged."""

    minimum: float
    per_start: tuple[float, ...]
    converged: tuple[bool, ...]
    passed: bool


@dataclass
class BoundsReport:
    value: float
    lower: float
    upper: float
    passed: bool


# ---------------------------------------------------------------------------
# Transition constants sigma+-
# ---------------------------------------------------------------------------


def sigma_pair(
    q: float,
    scales,
    cfg: SolverConfig = SolverConfig(),
    h_for=None,
) -> tuple[SigmaEstimate, SigmaEstimate]:
    """(sigma-_hat, sigma+_hat): upper bounds for both transition constants, each the min over the scale grid.

    The slab is the unit interval at mesh h_for(eps) (eps/8 by default), with
    values frozen to +-1 near its two ends.  Before any solve, a scale outside
    (0, 1], with more than MAX_SLAB_NODES nodes on the slab axis or with a mesh
    that does not divide the slab is rejected (ResolutionError, as is a grid
    with no scale left).  Scales whose frozen frame fills the slab are skipped
    with a warning before the solve.  Every other scale's minus and plus slabs
    are solved in one call, minus then plus per scale.  The minus energy is
    also evaluated on the plus minimizer: the minus integrand is dominated
    pointwise, so this keeps the pair ordered and is still an upper bound for
    sigma-.  Each estimate keeps the fields it solved for.
    """
    if h_for is None:
        h_for = lambda eps: eps / 8.0
    for eps in scales:
        if not 0.0 < eps <= 1.0:
            raise ResolutionError("scales must lie in (0, 1]")
        if 1.0 / h_for(eps) > MAX_SLAB_NODES:
            msg = f"{1.0 / h_for(eps):.6g} nodes on the unit slab axis at h = {h_for(eps):g}"
            raise ResolutionError(f"scale {eps:g} puts {msg}, more than MAX_SLAB_NODES = {MAX_SLAB_NODES}")
    env = make_environment(EnvironmentSpec(q=q))
    unit = OrientedCube((0.0,), 1.0, Direction.from_integers(1))
    slabs = {eps: [Cell(env, unit, 0, eps, h_for(eps), variant) for variant in ("m_minus", "m_plus")] for eps in scales}
    built = {}
    data = {eps: _datum(minus, built) for eps, (minus, _) in slabs.items()}  # every scale's, before the solve
    cells = []
    for eps, grid in data.items():
        if grid.frozen.all():
            # frame covers the whole slab: the datum is the only competitor, and there is nothing to solve
            warnings.warn(f"skipping degenerate scale {eps}: frozen frame fills the unit slab")
            continue
        cells += slabs[eps]
    if not cells:
        raise ResolutionError("no resolvable scale in the grid")
    records = _cell_records(cells, cfg, built)
    minus, plus = ({rec.cell.epsilon: rec.solve for rec in records[k::2]} for k in (0, 1))  # scale -> SolveResult
    minus_per_eps = {}
    for eps, res in minus.items():
        slab = plus[eps].field
        minus_per_eps[eps] = min(res.value, EnergyModel(slab, env, EnergyParams(eps, "m_minus")).energy(slab.values))
    plus_per_eps = {eps: res.value for eps, res in plus.items()}
    return _min_over_scales("minus", minus_per_eps, minus), _min_over_scales("plus", plus_per_eps, plus)


def _min_over_scales(variant: str, per_eps: dict, solves: dict) -> SigmaEstimate:
    best_eps = min(per_eps, key=per_eps.get)
    return SigmaEstimate(variant, per_eps[best_eps], best_eps, per_eps, solves)


# ---------------------------------------------------------------------------
# Cell problems
# ---------------------------------------------------------------------------


def _datum(cell: Cell, built: dict) -> GridField:
    """The frozen datum of `cell`: its domain's grid with the ramp eta(t_n/epsilon) as values.

    The frame is max(2h, epsilon) deep; on sigma's slabs (the m_minus and
    m_plus variants) it is max(2h, epsilon/2) deep and exactly +-1, the
    admissible datum there.  `built` keeps every datum made: a cube's is the
    same in local coordinates for every cube of one side, so cubes share one
    per (n, side, epsilon, h) and each is placed by its direction and center.
    """
    dom, slab = cell.domain, cell.variant != "general"
    cube = isinstance(dom, OrientedCube)
    key = ((dom.n, dom.side) if cube else dom, cell.epsilon, cell.h, slab)
    if key not in built:
        width = frame_width_for(cell.h, cell.epsilon, "slab" if slab else "cell")
        grid = cube_grid(dom, cell.h, width) if cube else cuboid_grid(dom, cell.h, width)
        grid.values[...] = profile_values(grid, cell.epsilon)
        if slab:  # the ramp is odd and nonzero off t_n = 0: its sign is the +-1 datum
            grid.values[grid.frozen] = np.sign(grid.values[grid.frozen])
        built[key] = grid
    if not cube:
        return built[key]
    return replace(built[key], direction=dom.direction, physical_shift=tuple(map(float, dom.center)))


def _cell_records(cells, cfg: SolverConfig, built: dict | None = None) -> list[CellRecord]:
    """Solve the cells in one solve_many call, reusing the data in `built`; one CellRecord each, in order.

    Cells of one geometry are solved in lockstep batches, so the `wall_ms` of a
    record's solve is the wall time of its batch and `batch` the batch size.
    """
    built = {} if built is None else built
    problems = [(_datum(cell, built), cell.env, EnergyParams(cell.epsilon, cell.variant)) for cell in cells]
    return [CellRecord(cell, res) for cell, res in zip(cells, solve_many(problems, cfg))]


def cell_problems_r(
    spec: EnvironmentSpec,
    nus,
    r_list,
    seeds,
    x0_list=None,
    cfg: SolverConfig = SolverConfig(),
    h: float = 0.25,
    epsilon: float = 1.0,
) -> list[CellRecord]:
    """The cell of every direction x r x seed x x0 at scale epsilon, solved together, records in that order.

    The cell for r >= 4 (ValueError otherwise) at center x0 is the cube of side
    r*epsilon centered at r*epsilon*x0: the unit cell of side r at r*x0, rescaled
    by epsilon.  Seed s samples the environment spec.with_seed(s); x0_list = None
    is the origin alone.  Cells that share r (hence grid and frozen frame) form
    one group, whatever their direction, environment or center.
    """
    if any(float(r) < 4.0 for r in r_list):
        raise ValueError("cell problems need r >= 4 (side >= 4 epsilon), so the transition fits inside")
    envs = {seed: make_environment(spec.with_seed(seed)) for seed in seeds}
    centers = None if x0_list is None else [tuple(float(v) for v in np.atleast_1d(x0)) for x0 in x0_list]
    cells = [
        Cell(envs[seed], OrientedCube(tuple(r * epsilon * v for v in x0), float(r) * epsilon, nu), i, epsilon, h)
        for nu in nus
        for r in r_list
        for seed in seeds
        for i, x0 in enumerate(centers if centers is not None else ((0.0,) * nu.n,))
    ]
    return _cell_records(cells, cfg)


# ---------------------------------------------------------------------------
# Subadditive slab process
# ---------------------------------------------------------------------------


def mu_nu(pairs, cfg: SolverConfig = SolverConfig(), h: float = 0.25) -> list[MuSample]:
    """Value of the subadditive slab process on each (environment, base cuboid) pair, solved in one call.

    A value is m_hat / M^(n-1).  Every base side must be >= 1 (ValueError
    before any solve otherwise), so that the solved value is sign-controlled.
    A solved value below -SOLVER_SLACK is clamped to zero and flagged as an anomaly.
    """
    pairs = list(pairs)
    if any(min(cuboid.base_lengths) < 1.0 for _, cuboid in pairs):
        raise ValueError("the slab process is solved on bases with every side >= 1")
    samples = []
    for rec in _cell_records([Cell(env, cuboid, 0, 1.0, h) for env, cuboid in pairs], cfg):
        raw = rec.m_hat / rec.cell.domain.m_nu ** (rec.cell.domain.n - 1)
        anomaly = raw < -SOLVER_SLACK
        samples.append(MuSample(max(raw, 0.0) if anomaly else raw, anomaly, rec.solve))
    return samples


def glued_partition_energy(
    env: Environment,
    cuboid: LatticeCuboid,
    cut_points,
    cfg: SolverConfig = SolverConfig(),
    h: float = 0.25,
) -> dict:
    """Paste sub-cuboid minimizers into the full slab and evaluate its energy.

    `cut_points` split the (1d) base interval into parts; the parts are solved
    on their own cuboids in one call, the minimizers are pasted into the full
    grid (they agree with the boundary ramp on the collars), and the leftover
    region keeps the ramp, whose integrand vanishes there.  A part whose frozen
    frame fills its grid is not solved: its datum is its only competitor, so
    the datum is its minimizer.  Returns the glued energy, the sum of the part
    minima and the SolveResults of the solved parts; subadditivity predicts
    glued <= sum to rounding.
    """
    if cuboid.n != 2:
        raise NotImplementedError("partition gluing is implemented for n = 2")
    (a, b), = cuboid.base
    cuts = sorted(float(c) for c in cut_points)
    if any(not a < c < b for c in cuts):
        raise ValueError("cut points must fall inside the base interval")
    edges = [a] + cuts + [b]

    big = _datum(Cell(env, cuboid, 0, 1.0, h), {})
    lo_lat, lo_vert = big.lo

    parts = [Cell(env, LatticeCuboid((edge,), cuboid.direction), 0, 1.0, h) for edge in zip(edges[:-1], edges[1:])]
    offsets = []  # of each part's grid in the full grid, all checked before any part is solved
    for part in parts:
        bounds = part.domain.local_bounds()
        off_lat = (bounds[0][0] - lo_lat) / h
        off_vert = (bounds[1][0] - lo_vert) / h
        if abs(off_lat - round(off_lat)) > 1e-9 or abs(off_vert - round(off_vert)) > 1e-9:
            raise ValueError("partition is not commensurate with the mesh")
        offsets.append((int(round(off_lat)), int(round(off_vert))))

    built = {}
    data = [_datum(part, built) for part in parts]
    solves = [rec.solve for rec in _cell_records([p for p, g in zip(parts, data) if not g.frozen.all()], cfg, built)]
    found = iter(solves)
    params = EnergyParams(1.0, "general")
    total = 0.0
    for grid, (i0, j0) in zip(data, offsets):
        if grid.frozen.all():
            total += EnergyModel(grid, env, params).energy(grid.values)
        else:
            res = next(found)
            total += res.value
            grid = res.field
        ni, nj = grid.shape
        big.values[i0 : i0 + ni, j0 : j0 + nj] = grid.values
    glued = EnergyModel(big, env, params).energy(big.values)
    return {
        "glued_energy": glued,
        "sum_part_minima": total,
        "parts": tuple(solves),
        "slack": glued - total,
    }


# ---------------------------------------------------------------------------
# Homogenized density estimation
# ---------------------------------------------------------------------------


def _fit_limit(rs: np.ndarray, values: np.ndarray) -> float:
    """Least-squares fit of value = limit + A/r over the scales given; returns the limit.

    The intercept in closed form, with x = 1/r over the m scales:
    limit = sum_i (Sxx - Sx x_i) v_i / (m Sxx - Sx^2), weights -0.5, 0.5 and 1
    at r = 8, 16, 32.  A 2-column fit needs no LAPACK routine, whose code
    would otherwise be paged into every process that estimates f_hom.
    """
    if len(rs) == 1:
        return float(values[0])
    x = 1.0 / rs
    sx, sxx = float(np.sum(x)), float(np.sum(x * x))
    return float(np.sum((sxx - sx * x) * values) / (len(x) * sxx - sx * sx))


def _converged(records) -> list[CellRecord]:
    """The converged records of `records`, in order; each other one is excluded with a warning."""
    for rec in records:
        if not rec.converged:
            warnings.warn(f"excluding non-converged solve (seed={rec.cell.seed}, {rec.cell.work_id})")
    return [rec for rec in records if rec.converged]


def f_hom_reduce(nu: Direction, r_schedule, seeds, records) -> FHomEstimate:
    """f_hom for direction nu from the records of its cells, grouped by their own nu, seed and r.

    Per seed, the x0-averaged normalized values are extrapolated in 1/r over the
    top three scales of r_schedule where a solve converged (`fit_r`); the
    estimate is the mean of the per-seed limits.  Records of other directions
    are ignored.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    r_schedule = tuple(sorted(float(r) for r in r_schedule))
    values = {}
    for rec in _converged([rec for rec in records if rec.cell.nu.nu == nu.nu]):
        values.setdefault((rec.cell.seed, rec.cell.r), []).append(rec.normalized)
    per_seed_limit, x0_spread, fit_r = {}, {}, {}
    for seed in seeds:
        by_r = {r: float(np.mean(values[seed, r])) for r in r_schedule if (seed, r) in values}
        fit_r[seed] = list(by_r)[-3:]  # r_schedule is ascending
        if by_r:
            per_seed_limit[seed] = _fit_limit(np.array(fit_r[seed]), np.array([by_r[r] for r in fit_r[seed]]))
        top_r_values = values.get((seed, r_schedule[-1]), [])
        if len(top_r_values) > 1:
            mean = float(np.mean(top_r_values))
            x0_spread[seed] = float((np.max(top_r_values) - np.min(top_r_values)) / abs(mean))
    if not per_seed_limit:
        raise EstimateError(f"no converged cell solve for nu = {nu.nu} over seeds {tuple(seeds)}")
    limits = np.array([per_seed_limit[s] for s in per_seed_limit])
    estimate = float(np.mean(limits))
    stderr = float(np.std(limits, ddof=1) / np.sqrt(len(limits))) if len(limits) > 1 else 0.0
    return FHomEstimate(
        nu=nu,
        estimate=estimate,
        stderr=stderr,
        per_seed_limit=per_seed_limit,
        x0_spread=x0_spread,
        fit_r=fit_r,
    )


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------


def verify_positivity(
    q: float,
    sides=(1.0, 1.0),
    h: float = 1.0 / 16.0,
    n_starts: int = 5,
    cfg: SolverConfig = SolverConfig(),
    seed: int = 0,
) -> PositivityReport:
    """Free minimization of the minus comparison energy from random starts.

    This probes int W - q|grad u|^2 + |hess u|^2 >= 0 on boxes with all sides
    >= 1.  The scaled smallness inequality needs no probe of its own: on a box
    B at mesh h, the eps-scaled energy is eps^(n-1) times the unit-scale energy
    on B/eps at mesh h/eps.  Small q keeps the infimum nonnegative; large q
    leaves the validity regime and genuinely negative minima are expected (and
    reported, not hidden).  A start that stops at max_iters is no minimum, so
    the check passes only when every start converged.
    """
    sides = tuple(float(s) for s in sides)
    if min(sides) < 1.0:
        raise ValueError("positivity regime needs all sides >= 1")
    n = len(sides)
    direction = Direction.from_integers(*([0] * (n - 1) + [1]))
    env = make_environment(EnvironmentSpec(q=q))
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(max(1, n_starts)):
        grid = box_grid(direction, (0.0,) * n, sides, h)
        grid.values[...] = rng.uniform(-1.5, 1.5, grid.shape)
        starts.append((grid, env, EnergyParams(1.0, "m_minus")))
    results = solve_many(starts, cfg)
    values = [res.value for res in results]
    converged = [res.converged for res in results]
    minimum = float(min(values))
    return PositivityReport(
        minimum=minimum,
        per_start=tuple(values),
        converged=tuple(converged),
        passed=minimum >= -SOLVER_SLACK and all(converged),
    )


def bounds_check(
    f_hom_value: float,
    sigma_minus: float,
    sigma_plus: float,
    c1: float,
    c2: float,
) -> BoundsReport:
    """Check c1*sigma- <= f_hom <= c2*sigma+ with relative slack BOUNDS_SLACK on both sides.

    Both sigma inputs are solver upper bounds; using the minus bound on the left
    only tightens the test.
    """
    lower = c1 * sigma_minus * (1.0 - BOUNDS_SLACK)
    upper = c2 * sigma_plus * (1.0 + BOUNDS_SLACK)
    return BoundsReport(
        value=f_hom_value,
        lower=lower,
        upper=upper,
        passed=lower <= f_hom_value <= upper,
    )
