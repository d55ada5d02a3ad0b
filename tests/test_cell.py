import numpy as np
import pytest

from homlab.core import compute_c_eta
from homlab.environment import EnvironmentSpec, make_environment, shift_environment
from homlab.geometry import Direction, LatticeCuboid, OrientedCube
from homlab.grids import EnergyModel, EnergyParams, ResolutionError
from homlab.solve import SolverConfig, SolveResult, solve_many
from homlab import cell
from homlab.cell import (
    Cell,
    CellRecord,
    EstimateError,
    _fit_limit,
    bounds_check,
    cell_problems_r,
    f_hom_reduce,
    glued_partition_energy,
    mu_nu,
    sigma_pair,
    verify_positivity,
)

QUICK = SolverConfig(max_iters=12000, grad_tol=1e-3 * 0.25**2)


def checkerboard(seed=0):
    return EnvironmentSpec(
        kind="checkerboard", a_range=(0.8, 1.2), b_range=(-0.04, 0.05), c_range=(0.8, 1.2),
        q=0.05, c1=0.8, c2=1.2, seed=seed,
    )


def homogeneous(q=0.05):
    return EnvironmentSpec(q=q, b_range=(q, q))


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------


def test_sigma_minus_not_above_plus():
    minus, plus = sigma_pair(0.05, (0.25, 0.125), QUICK)
    assert 0.0 < minus.value <= plus.value


def test_sigma_bounded_by_ramp_constant(quartic):
    c_eta = compute_c_eta(quartic, 0.05)
    minus, plus = sigma_pair(0.05, (0.25, 0.125), QUICK)
    assert plus.value <= c_eta + 1e-6
    assert minus.value <= c_eta + 1e-6


def test_sigma_is_min_over_scale_grid():
    for est in sigma_pair(0.05, (0.5, 0.25, 0.125), QUICK):
        assert est.value == min(est.per_epsilon.values())
        assert est.per_epsilon[est.best_epsilon] == est.value


def test_sigma_raises_on_an_unresolvable_scale():
    # h = 0.125 > eps/4 at eps = 0.125: the energy model's ResolutionError reaches the caller
    with pytest.raises(ResolutionError, match="cannot resolve epsilon = 0.125"):
        sigma_pair(0.05, (0.125, 0.5), QUICK, h_for=lambda e: 0.125)


def test_sigma_skips_degenerate_scales(monkeypatch):
    # at eps = 1 the frozen frame fills the unit slab: no competitor, no value, and no solve
    solved = []

    def spy(problems, cfg):
        solved.extend(params.epsilon for _, _, params in problems)
        return solve_many(problems, cfg)

    monkeypatch.setattr(cell, "solve_many", spy)
    with pytest.warns(UserWarning, match="degenerate"):
        pair = sigma_pair(0.05, (1.0, 0.25), QUICK)
    for est in pair:
        assert 1.0 not in est.per_epsilon
        assert 0.25 in est.per_epsilon
    with pytest.warns(UserWarning, match="degenerate"), pytest.raises(ValueError):
        sigma_pair(0.05, (1.0,), QUICK)
    assert solved == [0.25, 0.25]


def test_sigma_pair_builds_each_scale_datum_once_and_solves_every_slab_in_one_call(monkeypatch):
    meshes, calls = [], []  # the mesh of every grid built, and the problems of every solve_many call
    cube_grid = cell.cube_grid

    def grid_spy(cube, h, frame_width):
        meshes.append(h)
        return cube_grid(cube, h, frame_width)

    def solve_spy(problems, cfg):
        calls.append([(params.epsilon, params.variant) for _, _, params in problems])
        return solve_many(problems, cfg)

    monkeypatch.setattr(cell, "cube_grid", grid_spy)
    monkeypatch.setattr(cell, "solve_many", solve_spy)
    sigma_pair(0.05, (0.25, 0.125), QUICK)
    assert meshes == [0.25 / 8.0, 0.125 / 8.0]
    assert calls == [[(eps, variant) for eps in (0.25, 0.125) for variant in ("m_minus", "m_plus")]]


class Solved(Exception):
    """Raised in place of a slab solve: the scale passed every check before it."""


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_sigma_rejects_a_scale_beyond_the_slab_bound_before_any_solve(monkeypatch, variant):
    reached = []

    def no_solve(problems, cfg):
        reached.extend((params.epsilon, params.variant) for _, _, params in problems)
        raise Solved()

    monkeypatch.setattr(cell, "solve_many", no_solve)
    assert cell.MAX_SLAB_NODES == 2048
    # eps = 1/256 puts 2048 nodes on the unit slab axis and this variant's slab is solved; 1/512 puts 4096 there
    with pytest.raises(Solved):
        sigma_pair(0.05, (1.0 / 256.0,), QUICK)
    assert (1.0 / 256.0, f"m_{variant}") in reached
    reached.clear()
    for scales in ((1.0 / 512.0,), (0.0625, 1e-5)):
        # the finer scale comes last: it is rejected before the first is solved
        with pytest.raises(ValueError, match=r"more than MAX_SLAB_NODES = 2048"):
            sigma_pair(0.05, scales, QUICK)
    with pytest.raises(ValueError, match=r"scale 1e-05 puts 800000 nodes on the unit slab axis at h = 1.25e-06"):
        sigma_pair(0.05, (1e-5,), QUICK)
    assert reached == []


# ---------------------------------------------------------------------------
# cell problems
# ---------------------------------------------------------------------------


def test_cell_record_positive_and_below_ramp_bound(e2, quartic):
    (rec,) = cell_problems_r(checkerboard(3), [e2], [8], [3], [(0.0, 0.0)], QUICK, 0.25)
    c_eta = compute_c_eta(quartic, 0.05)
    assert rec.normalized >= -1e-6
    assert rec.normalized <= 1.2 * c_eta * 1.02
    assert rec.converged


def test_cell_requires_minimum_scale(e2):
    with pytest.raises(ValueError, match="r >= 4"):
        cell_problems_r(checkerboard(), [e2], [2], [0], [(0.0, 0.0)], QUICK, 0.25)


def test_rescaling_identity_on_matched_grids(e2):
    # the discrete functional satisfies the change of variables exactly; the two
    # solves differ only through the stopping rule, i.e. by solver tolerance
    (rec_r,) = cell_problems_r(checkerboard(7), [e2], [8], [7], [(0.0, 0.0)], QUICK, 0.25)
    (rec_e,) = cell_problems_r(checkerboard(7), [e2], [8], [7], None, QUICK, 0.25 / 8.0, 1.0 / 8.0)
    assert rec_e.cell.domain.side == 1.0
    assert rec_e.normalized == pytest.approx(rec_r.normalized, rel=1e-5)


def test_unit_and_rescaled_cells_in_one_call_get_their_records_alone(e2):
    # r = 8 at h = 1/4 and rho = 1 at eps = 1/8, h = 1/32: matched 32^2 grids, two batches of one solve_many call
    env = make_environment(checkerboard(7))
    unit = Cell(env, OrientedCube((2.0, -4.0), 8.0, e2), 0, 1.0, 0.25)
    scaled = Cell(env, OrientedCube((0.25, -0.5), 1.0, e2), 0, 1.0 / 8.0, 0.25 / 8.0)
    assert (unit.r, unit.work_id) == (scaled.r, scaled.work_id) == (8.0, "nu=0/r=8/x0=0")
    together = cell._cell_records([unit, scaled], QUICK)
    for rec, item in zip(together, (unit, scaled), strict=True):
        (alone,) = cell._cell_records([item], QUICK)
        assert rec.cell is item
        assert rec.m_hat == alone.m_hat and rec.normalized == alone.normalized
        assert (rec.solve.iters, rec.solve.final_grad_norm, rec.solve.converged) == (
            alone.solve.iters, alone.solve.final_grad_norm, alone.solve.converged
        )
        assert {k: v for k, v in rec.solve.diagnostics.items() if k != "wall_ms"} == {
            k: v for k, v in alone.solve.diagnostics.items() if k != "wall_ms"
        }
    assert together[0].normalized == pytest.approx(together[1].normalized, rel=1e-5)


def test_rescaled_cell_rejects_tight_boxes(e2):
    with pytest.raises(ValueError, match="r >= 4"):
        cell_problems_r(checkerboard(), [e2], [2], [0], None, QUICK, 0.125 / 4.0, 0.125)


def test_homogeneous_cell_independent_of_center(e2):
    x0s = ((0.0, 0.0), (0.3, -0.4), (-1.0, 0.25))
    vals = [rec.normalized for rec in cell_problems_r(homogeneous(), [e2], [8], [0], x0s, QUICK, 0.25)]
    assert max(vals) - min(vals) <= 0.01 * abs(np.mean(vals))


# ---------------------------------------------------------------------------
# slab process
# ---------------------------------------------------------------------------


def test_mu_nu_rejects_a_base_side_below_one_before_any_solve(e2, monkeypatch):
    # a base side below 1 leaves the solved value without sign control; no command builds one
    calls = []

    def spy(problems, cfg):
        calls.append(len(problems))
        return solve_many(problems, cfg)

    monkeypatch.setattr(cell, "solve_many", spy)
    env = make_environment(checkerboard(1))
    pairs = [(env, LatticeCuboid(((0.0, 2.0),), e2)), (env, LatticeCuboid(((0.0, 0.5),), e2))]
    with pytest.raises(ValueError, match="every side >= 1"):
        mu_nu(pairs, QUICK, 0.25)
    assert calls == []


def test_mu_bounds(e2, quartic):
    env = make_environment(checkerboard(2))
    c_eta = compute_c_eta(quartic, 0.05)
    cubs = [LatticeCuboid((base,), e2) for base in ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.5))]
    for cub, sample in zip(cubs, mu_nu([(env, cub) for cub in cubs], QUICK, 0.25), strict=True):
        assert not sample.anomaly
        assert -1e-6 <= sample.value <= 1.2 * c_eta * cub.base_area


def test_mu_stationarity_under_lattice_shifts(e2):
    env = make_environment(checkerboard(5))
    cub = LatticeCuboid(((0.0, 2.0),), e2)
    for z in ((1,), (-3,)):
        shifted_env = shift_environment(env, tuple(int(v) for v in cub.lattice_shift_vector(z)))
        a, b = mu_nu([(shifted_env, cub), (env, cub.shifted(z))], QUICK, 0.25)
        assert a.value == b.value


def test_mu_stationarity_rational_tilted_direction():
    d = Direction.from_integers(3, 4)
    env = make_environment(checkerboard(9))
    cub = LatticeCuboid(((0.0, 1.0),), d)
    z = (2,)
    shifted_env = shift_environment(env, tuple(int(v) for v in cub.lattice_shift_vector(z)))
    a, b = mu_nu([(shifted_env, cub), (env, cub.shifted(z))], QUICK, 0.25)
    assert a.value == pytest.approx(b.value, rel=1e-9)


def test_glued_partition_is_subadditive_witness(e2):
    env = make_environment(checkerboard(4))
    cub = LatticeCuboid(((0.0, 4.0),), e2)
    out = glued_partition_energy(env, cub, [1.0, 2.5], QUICK, 0.25)
    assert out["glued_energy"] <= out["sum_part_minima"] + 1e-9
    # and the big minimum is below the glued competitor's energy
    (big,) = mu_nu([(env, cub)], QUICK, 0.25)
    assert big.value * cub.m_nu <= out["glued_energy"] + 1e-9


def test_glued_partition_takes_a_part_whose_frame_fills_it_as_its_datum(e2, monkeypatch):
    # the part (0, 0.5) is 6 nodes wide, all of them in the 4-node lateral frames: no node of it is free
    solved = []

    def spy(problems, cfg):
        solved.extend(grid.shape for grid, _, _ in problems)
        return solve_many(problems, cfg)

    monkeypatch.setattr(cell, "solve_many", spy)
    env = make_environment(checkerboard(4))
    out = glued_partition_energy(env, LatticeCuboid(((0.0, 2.0),), e2), [0.5], QUICK, 0.25)
    assert solved == [(18, 18)] and len(out["parts"]) == 1
    datum = cell._datum(Cell(env, LatticeCuboid(((0.0, 0.5),), e2), 0, 1.0, 0.25), {})
    assert datum.frozen.all()
    filled = EnergyModel(datum, env, EnergyParams(1.0, "general")).energy(datum.values)
    assert out["sum_part_minima"] == filled + out["parts"][0].value
    assert out["slack"] <= 1e-9


def test_glued_partition_checks_every_part_against_the_mesh_before_any_solve(e2, monkeypatch):
    # at h = 0.25 the cut at 1.25 is off the mesh; the 15 x 15 part (0, 1.25) was solved before the raise
    calls = []

    def spy(problems, cfg):
        calls.append(len(problems))
        return solve_many(problems, cfg)

    monkeypatch.setattr(cell, "solve_many", spy)
    env = make_environment(checkerboard(4))
    with pytest.raises(ValueError, match="partition is not commensurate with the mesh"):
        glued_partition_energy(env, LatticeCuboid(((0.0, 2.0),), e2), [1.25], QUICK, 0.25)
    assert calls == []


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------


def test_f_hom_estimate_homogeneous_matches_single_cell(e2):
    est = f_hom_reduce(e2, (8, 16), (0, 1), cell_problems_r(homogeneous(), [e2], (8, 16), (0, 1), None, QUICK, 0.25))
    # no randomness: both seeds give the same limit
    limits = list(est.per_seed_limit.values())
    assert limits[0] == pytest.approx(limits[1], rel=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-10)


def test_f_hom_estimate_raises_when_no_solve_converged(e2):
    records = cell_problems_r(homogeneous(), [e2], (8, 16), (0,), None, SolverConfig(max_iters=1), 0.25)
    with pytest.raises(EstimateError), pytest.warns(UserWarning, match="non-converged"):
        f_hom_reduce(e2, (8, 16), (0,), records)


def test_f_hom_estimate_extrapolates_below_raw(e2):
    records = cell_problems_r(homogeneous(), [e2], (8, 16), (0,), None, QUICK, 0.25)
    est = f_hom_reduce(e2, (8, 16), (0,), records)
    raw_top = [rec.normalized for rec in records if rec.cell.r == 16]
    assert est.estimate < min(raw_top)  # boundary frame inflates raw values


def _record(nu, seed, r, normalized, converged=True, x0_index=0):
    """A hand-built CellRecord, no solve; r a power of two, so `normalized` comes back to the bit."""
    cube = OrientedCube((0.25 * x0_index * r, 0.0), r, nu)
    item = Cell(make_environment(homogeneous().with_seed(seed)), cube, x0_index, 1.0, 0.25)
    return CellRecord(item, SolveResult(None, r * normalized, 0, 0.0, converged))


@pytest.mark.parametrize("rs", [(8, 16), (16, 8), (8, 16, 32), (32, 8, 16), (4, 8, 16, 32, 64), (64, 16, 4, 32, 8)])
def test_fit_limit_is_the_least_squares_intercept_of_the_top_three_scales(e2, rs):
    r = np.array(rs, dtype=float)
    v = 2.1 + 3.7 / r + np.random.default_rng(0).normal(scale=0.05, size=len(r))
    top = np.argsort(r)[-3:]
    design = np.stack([np.ones(len(top)), 1.0 / r[top]], axis=1)
    oracle = np.linalg.lstsq(design, v[top], rcond=None)[0][0]
    est = f_hom_reduce(e2, rs, (0,), [_record(e2, 0, r_k, v_k) for r_k, v_k in zip(r, v)])
    assert est.fit_r == {0: sorted(r[top].tolist())}
    assert est.per_seed_limit[0] == pytest.approx(oracle, rel=1e-12)


def test_fit_limit_weights_at_8_16_32():
    # the weights perfbench's f_hom band is built from
    v8, v16, v32 = 17.01, 9.55, 5.82
    limit = _fit_limit(np.array([8.0, 16.0, 32.0]), np.array([v8, v16, v32]))
    assert limit == pytest.approx(-0.5 * v8 + 0.5 * v16 + v32, rel=1e-15)


def test_f_hom_reduce_takes_a_single_scale_as_is_and_fits_three(e2):
    # seed 0 converged at r = 32 only, seed 1 at every scale
    records = [_record(e2, 0, 8.0, 9.0, False), _record(e2, 0, 32.0, 2.2), _record(e2, 0, 32.0, 2.4, x0_index=1)]
    records += [_record(e2, 1, r, v) for r, v in ((8.0, 2.6), (16.0, 2.35), (32.0, 2.225))]
    records.append(_record(Direction.from_integers(1, 0), 0, 32.0, 7.0))  # another direction's record is ignored
    with pytest.warns(UserWarning, match="non-converged"):
        est = f_hom_reduce(e2, (8, 16, 32), (0, 1), records)
    assert est.per_seed_limit[0] == float(np.mean([2.2, 2.4]))
    assert est.per_seed_limit[1] == _fit_limit(np.array([8.0, 16.0, 32.0]), np.array([2.6, 2.35, 2.225]))
    assert est.per_seed_limit[1] == pytest.approx(-0.5 * 2.6 + 0.5 * 2.35 + 2.225, rel=1e-15)
    assert est.estimate == float(np.mean([est.per_seed_limit[0], est.per_seed_limit[1]]))
    assert est.fit_r == {0: [32.0], 1: [8.0, 16.0, 32.0]}


def test_f_hom_reduce_names_the_scales_each_seed_was_fitted_over(e2):
    # the max_iters = 40 run on the example medium: seed 0 stops short at r = 32, seed 1 at r = 16 and 32
    records = [_record(e2, 0, 8.0, 2.9), _record(e2, 0, 16.0, 2.5), _record(e2, 0, 32.0, 9.0, False)]
    records += [_record(e2, 1, 8.0, 16.5), _record(e2, 1, 16.0, 6.0, False), _record(e2, 1, 32.0, 9.0, False)]
    with pytest.warns(UserWarning, match="non-converged"):
        est = f_hom_reduce(e2, (8, 16, 32), (0, 1), records)
    assert est.fit_r == {0: [8.0, 16.0], 1: [8.0]}
    assert est.per_seed_limit == {0: _fit_limit(np.array([8.0, 16.0]), np.array([2.9, 2.5])), 1: 16.5}
    # a seed with no converged solve is named with no scale and has no limit
    with pytest.warns(UserWarning, match="non-converged"):
        est = f_hom_reduce(e2, (8, 16, 32), (0, 1, 2), records + [_record(e2, 2, 8.0, 3.0, False)])
    assert est.fit_r == {0: [8.0, 16.0], 1: [8.0], 2: []}
    assert set(est.per_seed_limit) == {0, 1}


def test_f_hom_limit_insensitive_to_schedule_doubling(e2):
    # r(t) = t versus r(t) = 2t: extrapolated limits agree within 3%
    est_a, est_b = (
        f_hom_reduce(e2, rs, (0,), cell_problems_r(homogeneous(), [e2], rs, (0,), None, QUICK, 0.25))
        for rs in ((8, 16, 32), (16, 32, 64))
    )
    assert est_b.estimate == pytest.approx(est_a.estimate, rel=0.03)


# at one scale the estimate is the Monte-Carlo mean over seeds of the normalized cell value


def test_one_scale_estimate_homogeneous_equals_each_seed(e2):
    est = f_hom_reduce(e2, [8], (0, 1), cell_problems_r(homogeneous(), [e2], [8], (0, 1), None, QUICK, 0.25))
    assert est.per_seed_limit[0] == est.per_seed_limit[1] == est.estimate
    assert est.stderr == 0.0


def test_one_scale_estimate_consistent_with_density_records(e2):
    # same seeds, same scale: the Monte-Carlo mean must match the per-seed r = 16
    # records of a two-scale solve
    spec = checkerboard()
    seeds = (0, 1, 2, 3)
    one = f_hom_reduce(e2, [16], seeds, cell_problems_r(spec, [e2], [16], seeds, None, QUICK, 0.25))
    records = cell_problems_r(spec, [e2], (8, 16), seeds, None, QUICK, 0.25)
    raw16 = [rec.normalized for rec in records if rec.cell.r == 16]
    assert one.estimate == pytest.approx(np.mean(raw16), abs=2 * max(one.stderr, 1e-12))


def test_one_scale_estimate_stderr_scaling(e2):
    spec = checkerboard()
    few = f_hom_reduce(e2, [8], range(4), cell_problems_r(spec, [e2], [8], range(4), None, QUICK, 0.25))
    many = f_hom_reduce(e2, [8], range(8), cell_problems_r(spec, [e2], [8], range(8), None, QUICK, 0.25))
    # doubling seeds shrinks the standard error by about sqrt(2)
    assert many.stderr < few.stderr
    assert many.stderr == pytest.approx(few.stderr / np.sqrt(2.0), rel=0.75)


# ---------------------------------------------------------------------------
# positivity and bounds
# ---------------------------------------------------------------------------


def test_positivity_zero_q_is_exactly_controlled():
    report = verify_positivity(1e-9, (1.0, 1.0), 1.0 / 8.0, 2, SolverConfig(max_iters=3000), seed=1)
    assert report.minimum >= -1e-9


def test_positivity_small_q_unit_square():
    report = verify_positivity(0.05, (1.0, 1.0), 1.0 / 16.0, 3, SolverConfig(max_iters=6000), seed=0)
    assert report.converged == (True, True, True)
    assert report.passed
    assert report.minimum >= -1e-6


def test_positivity_needs_every_start_converged():
    # one iteration leaves every start far from a minimum: that is no evidence of positivity
    report = verify_positivity(0.05, (1.0, 1.0), 1.0 / 16.0, 2, SolverConfig(max_iters=1), seed=0)
    assert report.converged == (False, False)
    assert not report.passed


def test_positivity_large_q_goes_negative():
    from _oracles import oscillation_energy

    report = verify_positivity(50.0, (1.0, 1.0), 1.0 / 16.0, 3, SolverConfig(max_iters=4000), seed=2)
    assert not report.passed
    competitor = oscillation_energy(50.0, delta=3.0, k=2.0 * np.pi)
    assert competitor < 0
    assert report.minimum <= competitor  # descent at least matches the analytic mode


def test_positivity_scaled_variant():
    # the eps-scaled minus energy is also sign-controlled at small q.  At eps = 1/4 on the unit square at
    # h = 1/16 it is 1/4 of the unit-scale energy on the side-4 square at h = 1/4: the same starts and iterates,
    # with grad_tol scaled by 4 so that the stop test is the same too
    report = verify_positivity(0.05, (4.0, 4.0), 0.25, 2, SolverConfig(max_iters=4000, grad_tol=1.5625e-8), seed=3)
    assert report.minimum / 4 >= -1e-6


def test_positivity_rejects_small_rectangles():
    with pytest.raises(ValueError):
        verify_positivity(0.05, (0.5, 1.0))


def test_bounds_check_pass_and_fail():
    ok = bounds_check(2.0, 1.9, 2.1, 1.0, 1.0)
    assert ok.passed
    bad = bounds_check(2.0, 1.9, 2.1, 0.5, 0.8)  # c2 sigma+ too small
    assert not bad.passed
    assert bad.upper < 2.0
