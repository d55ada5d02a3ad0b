import numpy as np
import pytest

from homlab.core import compute_c_eta
from homlab.environment import EnvironmentSpec, make_environment, shift_environment
from homlab.geometry import Direction, LatticeCuboid
from homlab.solve import SolverConfig
from homlab.cell import (
    EstimateError,
    bounds_check,
    cell_problem_r,
    eps_scaled_cell,
    ergodic_average,
    f_hom_estimate,
    glued_partition_energy,
    mu_nu,
    sigma_pair,
    sigma_pm,
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


def test_sigma_minus_not_above_plus(quartic):
    minus, plus = sigma_pair(quartic, 0.05, (0.25, 0.125), QUICK)
    assert 0.0 < minus.value <= plus.value


def test_sigma_bounded_by_ramp_constant(quartic):
    c_eta = compute_c_eta(quartic, 0.05)
    minus, plus = sigma_pair(quartic, 0.05, (0.25, 0.125), QUICK)
    assert plus.value <= c_eta + 1e-6
    assert minus.value <= c_eta + 1e-6


def test_sigma_is_min_over_scale_grid(quartic):
    est = sigma_pm("plus", quartic, 0.05, (0.5, 0.25, 0.125), QUICK)
    assert est.value == min(est.per_epsilon.values())
    assert est.per_epsilon[est.best_epsilon] == est.value


def test_sigma_minus_gate(quartic):
    with pytest.raises(ValueError):
        sigma_pm("minus", quartic, 1.0, (0.25,), QUICK)


def test_sigma_skips_unresolvable_scales(quartic):
    with pytest.warns(UserWarning):
        est = sigma_pm("plus", quartic, 0.05, (0.125, 0.5), QUICK, h_for=lambda e: 0.125)
    assert 0.125 not in est.per_epsilon
    assert 0.5 in est.per_epsilon


def test_sigma_skips_degenerate_scales(quartic):
    # at eps = 1 the frozen frame fills the unit slab: no competitor, no value
    with pytest.warns(UserWarning, match="degenerate"):
        est = sigma_pm("plus", quartic, 0.05, (1.0, 0.25), QUICK)
    assert 1.0 not in est.per_epsilon
    assert 0.25 in est.per_epsilon
    with pytest.warns(UserWarning, match="degenerate"), pytest.raises(ValueError):
        sigma_pm("plus", quartic, 0.05, (1.0,), QUICK)


# ---------------------------------------------------------------------------
# cell problems
# ---------------------------------------------------------------------------


def test_cell_record_positive_and_below_ramp_bound(e2, quartic):
    env = make_environment(checkerboard(3))
    rec = cell_problem_r(env, e2, 8, (0.0, 0.0), QUICK, 0.25)
    c_eta = compute_c_eta(quartic, 0.05)
    assert rec.normalized >= -1e-6
    assert rec.normalized <= 1.2 * c_eta * 1.02
    assert rec.converged


def test_cell_requires_minimum_scale(e2):
    env = make_environment(checkerboard())
    with pytest.raises(ValueError):
        cell_problem_r(env, e2, 2, (0.0, 0.0), QUICK, 0.25)


def test_rescaling_identity_on_matched_grids(e2):
    # the discrete functional satisfies the change of variables exactly; the two
    # solves differ only through the stopping rule, i.e. by solver tolerance
    env = make_environment(checkerboard(7))
    rec_r = cell_problem_r(env, e2, 8, (0.0, 0.0), QUICK, 0.25)
    rec_e = eps_scaled_cell(env, e2, 1.0, 1.0 / 8.0, (0.0, 0.0), QUICK, h=0.25 / 8.0)
    assert rec_e.normalized == pytest.approx(rec_r.normalized, rel=1e-5)


def test_eps_scaled_cell_rejects_tight_boxes(e2):
    env = make_environment(checkerboard())
    with pytest.raises(ValueError):
        eps_scaled_cell(env, e2, 0.25, 0.125, (0.0, 0.0), QUICK)


def test_homogeneous_cell_independent_of_center(e2):
    env = make_environment(homogeneous())
    vals = [
        cell_problem_r(env, e2, 8, x0, QUICK, 0.25).normalized
        for x0 in ((0.0, 0.0), (0.3, -0.4), (-1.0, 0.25))
    ]
    assert max(vals) - min(vals) <= 0.01 * abs(np.mean(vals))


# ---------------------------------------------------------------------------
# slab process
# ---------------------------------------------------------------------------


def test_mu_fallback_branch_exact(e2, quartic):
    env = make_environment(checkerboard(1))
    cub = LatticeCuboid(((0.0, 0.5),), e2)
    sample = mu_nu(env, cub, QUICK, 0.25)
    expected = 1.2 * compute_c_eta(quartic, 0.05) * 0.5
    assert sample.fallback
    assert sample.value == pytest.approx(expected, rel=1e-12)


def test_mu_bounds(e2, quartic):
    env = make_environment(checkerboard(2))
    c_eta = compute_c_eta(quartic, 0.05)
    for base in ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.5)):
        cub = LatticeCuboid((base,), e2)
        sample = mu_nu(env, cub, QUICK, 0.25)
        assert not sample.anomaly
        assert -1e-6 <= sample.value <= 1.2 * c_eta * cub.base_area


def test_mu_stationarity_under_lattice_shifts(e2):
    env = make_environment(checkerboard(5))
    cub = LatticeCuboid(((0.0, 2.0),), e2)
    for z in ((1,), (-3,)):
        shifted_env = shift_environment(env, tuple(int(v) for v in cub.lattice_shift_vector(z)))
        a = mu_nu(shifted_env, cub, QUICK, 0.25)
        b = mu_nu(env, cub.shifted(z), QUICK, 0.25)
        assert a.value == b.value


def test_mu_stationarity_rational_tilted_direction():
    d = Direction.from_integers(3, 4)
    env = make_environment(checkerboard(9))
    cub = LatticeCuboid(((0.0, 1.0),), d)
    z = (2,)
    shifted_env = shift_environment(env, tuple(int(v) for v in cub.lattice_shift_vector(z)))
    a = mu_nu(shifted_env, cub, QUICK, 0.25)
    b = mu_nu(env, cub.shifted(z), QUICK, 0.25)
    assert a.value == pytest.approx(b.value, rel=1e-9)


def test_glued_partition_is_subadditive_witness(e2):
    env = make_environment(checkerboard(4))
    cub = LatticeCuboid(((0.0, 4.0),), e2)
    out = glued_partition_energy(env, cub, [1.0, 2.5], QUICK, 0.25)
    assert out["glued_energy"] <= out["sum_part_minima"] + 1e-9
    # and the big minimum is below the glued competitor's energy
    big = mu_nu(env, cub, QUICK, 0.25)
    assert big.value * cub.m_nu <= out["glued_energy"] + 1e-9


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------


def test_f_hom_estimate_homogeneous_matches_single_cell(e2):
    est = f_hom_estimate(homogeneous(), e2, (8, 16), (0, 1), QUICK, 0.25)
    # no randomness: both seeds give the same limit
    limits = list(est.per_seed_limit.values())
    assert limits[0] == pytest.approx(limits[1], rel=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-10)


def test_f_hom_estimate_raises_when_no_solve_converged(e2):
    with pytest.raises(EstimateError), pytest.warns(UserWarning, match="non-converged"):
        f_hom_estimate(homogeneous(), e2, (8, 16), (0,), SolverConfig(max_iters=1), 0.25)


def test_f_hom_estimate_extrapolates_below_raw(e2):
    est = f_hom_estimate(homogeneous(), e2, (8, 16), (0,), QUICK, 0.25)
    raw_top = [rec.normalized for rec in est.records if rec.r == 16]
    assert est.estimate < min(raw_top)  # boundary frame inflates raw values


def test_f_hom_limit_insensitive_to_schedule_doubling(e2):
    # r(t) = t versus r(t) = 2t: extrapolated limits agree within 3%
    est_a = f_hom_estimate(homogeneous(), e2, (8, 16, 32), (0,), QUICK, 0.25)
    est_b = f_hom_estimate(homogeneous(), e2, (16, 32, 64), (0,), QUICK, 0.25)
    assert est_b.estimate == pytest.approx(est_a.estimate, rel=0.03)


def test_ergodic_average_homogeneous_equals_each_seed(e2):
    avg = ergodic_average(homogeneous(), e2, 8, (0, 1), QUICK, 0.25)
    assert avg.values[0] == avg.values[1] == avg.mean
    assert avg.stderr == 0.0


def test_ergodic_average_consistent_with_density_records(e2):
    # same seeds, same scale: the Monte-Carlo mean must match the per-seed cell
    # records pooled by the density estimator
    spec = checkerboard()
    seeds = (0, 1, 2, 3)
    avg = ergodic_average(spec, e2, 16, seeds, QUICK, 0.25)
    est = f_hom_estimate(spec, e2, (8, 16), seeds, QUICK, 0.25)
    raw16 = [rec.normalized for rec in est.records if rec.r == 16]
    assert avg.mean == pytest.approx(np.mean(raw16), abs=2 * max(avg.stderr, 1e-12))


def test_ergodic_average_stderr_scaling(e2):
    spec = checkerboard()
    few = ergodic_average(spec, e2, 8, range(4), QUICK, 0.25)
    many = ergodic_average(spec, e2, 8, range(8), QUICK, 0.25)
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
    # the eps-scaled minus energy is also sign-controlled at small q
    report = verify_positivity(
        0.05, (1.0, 1.0), 1.0 / 16.0, 2, SolverConfig(max_iters=4000), seed=3, epsilon=0.25
    )
    assert report.minimum >= -1e-6


def test_positivity_rejects_small_rectangles():
    with pytest.raises(ValueError):
        verify_positivity(0.05, (0.5, 1.0))


def test_bounds_check_pass_and_fail():
    ok = bounds_check(2.0, 1.9, 2.1, 1.0, 1.0)
    assert ok.passed
    bad = bounds_check(2.0, 1.9, 2.1, 0.5, 0.8)  # c2 sigma+ too small
    assert not bad.passed
    assert bad.upper < 2.0
