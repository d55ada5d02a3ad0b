import warnings

import numpy as np
import pytest

from homlab.cell import cell_problems_r
from homlab.environment import EnvironmentSpec, make_environment
from homlab.geometry import Direction, OrientedCube
from homlab import solve
from homlab.grids import (
    EnergyModel, EnergyParams, box_grid, cube_grid, frame_width_for, profile_values,
)
from homlab.solve import DivergenceError, SolverConfig, _axis_basis, _transform, solve_many

from _oracles import line_constant
from test_batch import MIXED_CELLS, random_starts
from test_grids import profile_datum, slab_datum


def env_mplus(q=1.0):
    return make_environment(EnvironmentSpec(q=q, b_range=(q, q)))


def test_already_optimal_field_returns_zero(e2):
    cube = OrientedCube((0.0, 0.0), 2.0, e2)
    g = cube_grid(cube, 0.25, frame_width=0.5)
    g.values[...] = 1.0
    (res,) = solve_many([(g, env_mplus(0.05), EnergyParams(1.0, "general"))], SolverConfig())
    assert res.value == 0.0
    assert res.iters <= 1
    assert res.converged


@pytest.mark.parametrize("grad_tol", [0.0, -1.0, float("nan"), float("inf")])
def test_solver_config_rejects_a_grad_tol_that_is_not_positive_and_finite(grad_tol):
    # with a nan tolerance every solve ran to max_iters; with an infinite one, none took a step
    with pytest.raises(ValueError, match="grad_tol must be positive and finite"):
        SolverConfig(grad_tol=grad_tol)


def test_descent_monotone_under_iteration_budget(e1):
    cube = OrientedCube((0.0,), 8.0, e1)
    field = profile_datum(cube, 1.0, h=0.125)
    env = env_mplus(1.0)
    values = []
    for max_iters in (50, 100, 200, 400):
        (res,) = solve_many([(field, env, EnergyParams(1.0, "m_plus"))], SolverConfig(max_iters=max_iters))
        values.append(res.value)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_boundary_nodes_preserved_bit_exactly(e2):
    cube = OrientedCube((0.0, 0.0), 4.0, e2)
    field = profile_datum(cube, 1.0, h=0.25)
    before = field.values[field.frozen].copy()
    (res,) = solve_many([(field, env_mplus(0.05), EnergyParams(1.0, "general"))], SolverConfig(max_iters=500))
    assert np.array_equal(res.field.values[field.frozen], before)


def test_determinism(e2):
    cube = OrientedCube((0.0, 0.0), 4.0, e2)
    field = profile_datum(cube, 1.0, h=0.25)
    spec = EnvironmentSpec(
        kind="checkerboard", a_range=(0.8, 1.2), b_range=(0.0, 0.05), c_range=(0.8, 1.2),
        q=0.05, c1=0.8, c2=1.2, seed=3,
    )
    env = make_environment(spec)
    cfg = SolverConfig(max_iters=800)
    (r1,) = solve_many([(field, env, EnergyParams(1.0, "general"))], cfg)
    (r2,) = solve_many([(field, env, EnergyParams(1.0, "general"))], cfg)
    assert r1.value == r2.value
    assert np.array_equal(r1.field.values, r2.field.values)


def test_diagnostics_report_what_ran(e2):
    cube = OrientedCube((0.0, 0.0), 4.0, e2)
    field = profile_datum(cube, 1.0, h=0.25)
    (res,) = solve_many([(field, env_mplus(0.05), EnergyParams(1.0, "general"))], SolverConfig(max_iters=2))
    assert not res.converged
    assert res.diagnostics["stop_reason"] == "max_iters"
    assert res.iters == 2


def test_reported_value_is_energy_of_returned_field(e2):
    cube = OrientedCube((0.0, 0.0), 4.0, e2)
    field = profile_datum(cube, 1.0, h=0.25)
    env = env_mplus(0.05)
    (res,) = solve_many([(field, env, EnergyParams(1.0, "general"))], SolverConfig(max_iters=400))
    model = EnergyModel(res.field, env, EnergyParams(1.0, "general"))
    assert res.value == pytest.approx(model.energy(res.field.values), abs=1e-12)


def test_one_dimensional_transition_constant_matches_dense_oracle(e1):
    # unit-scale comparison energy on a length-16 interval, ramp initialization
    cube = OrientedCube((0.0,), 16.0, e1)
    field = profile_datum(cube, 1.0, h=0.1, frame_width=frame_width_for(0.1, 1.0))
    (res,) = solve_many([(field, env_mplus(1.0), EnergyParams(1.0, "m_plus"))], SolverConfig())
    reference = line_constant(b=1.0, length=16.0, h=0.02)
    assert res.value == pytest.approx(reference, rel=0.02)
    assert res.value >= 8.0 / 3.0 - 1e-6  # first-order sharp-interface lower bound


def test_upper_bound_semantics_under_nested_frames(e1):
    # widening the frozen frame shrinks the admissible class, so the value cannot drop
    cube = OrientedCube((0.0,), 8.0, e1)
    env = env_mplus(0.05)
    values = []
    for width in (0.25, 0.5, 1.0):
        field = profile_datum(cube, 1.0, h=0.125, frame_width=width)
        (res,) = solve_many([(field, env, EnergyParams(1.0, "general"))], SolverConfig())
        values.append(res.value)
    tol = 2e-6
    assert values[1] >= values[0] - tol
    assert values[2] >= values[1] - tol


def test_divergence_error_on_non_finite_energy(e1):
    cube = OrientedCube((0.0,), 4.0, e1)
    field = profile_datum(cube, 1.0, h=0.125)
    field.values[~field.frozen] = np.nan  # the value cap clamps inf, NaN survives
    with pytest.raises(DivergenceError):
        solve_many([(field, env_mplus(0.05), EnergyParams(1.0, "general"))], SolverConfig())


# ---------------------------------------------------------------------------
# descent metric
# ---------------------------------------------------------------------------


def _dense_laplacian(m, ends):
    lap = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    if ends == "wrap":
        lap[0, -1] -= 1.0
        lap[-1, 0] -= 1.0
        return lap
    lo, hi = ends.split("-")
    if lo == "free":
        lap[0, 0] = 1.0  # edge replication: the ghost node copies the edge node
    if hi == "free":
        lap[-1, -1] = 1.0
    return lap


@pytest.mark.parametrize("ends", ["fixed-fixed", "free-free", "wrap"])
@pytest.mark.parametrize("m", [7, 8, 9])
def test_axis_basis_diagonalizes_dense_laplacian(ends, m):
    h = 0.25
    q, lam = _axis_basis(m, h, ends)
    assert np.abs(q.T @ q - np.eye(m)).max() < 1e-12
    assert np.abs(q.T @ (_dense_laplacian(m, ends) / h**2) @ q - np.diag(lam)).max() < 1e-12 / h**2


@pytest.mark.parametrize("shape", [(7,), (24,), (1, 9), (24, 24), (23, 25), (60, 124), (124, 124)])
@pytest.mark.parametrize("ends", ["fixed-fixed", "free-free", "wrap"])
def test_transform_matches_tensordot_bit_for_bit(shape, ends):
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    mats = [_axis_basis(m, 0.25, ends)[0] for m in shape]
    for mats in (mats, [q.T for q in mats]):
        x = rng.standard_normal(shape)
        ref = x
        for axis, q in enumerate(mats):
            ref = np.moveaxis(np.tensordot(q, ref, axes=(1, axis)), 0, axis)
        assert np.array_equal(_transform(mats, x), ref)


STRONG_CHECKERBOARD = EnvironmentSpec(
    kind="checkerboard", a_range=(0.8, 1.2), b_range=(-0.05, 0.05), c_range=(0.8, 1.2),
    q=0.05, c1=0.8, c2=1.2, seed=0,
)
EXAMPLE_CHECKERBOARD = EnvironmentSpec(  # configs/example.ini
    kind="checkerboard", a_range=(0.8, 1.2), b_range=(-0.04, 0.05), c_range=(0.8, 1.2),
    q=0.05, c1=0.8, c2=1.2, seed=0,
)
ACC = SolverConfig(max_iters=25000, grad_tol=1e-3 * 0.25**2)


@pytest.mark.parametrize(
    "spec, nu, seed_commit_value",
    [
        (STRONG_CHECKERBOARD, (0, 1), 162.859779508),
        (EXAMPLE_CHECKERBOARD, (1, 0), 144.335144797),
    ],
)
def test_r16_cell_converges_fast_to_the_seed_commit_value(spec, nu, seed_commit_value):
    # the plain two-point gradient method took 2635 and 1451 iterations on these cells
    (rec,) = cell_problems_r(spec, [Direction.from_integers(*nu)], [16], [spec.seed], [(0.0, 0.0)], ACC, 0.25)
    assert rec.converged
    assert rec.solve.iters <= 500
    # an upper bound: tight above, a better minimizer is welcome below
    assert seed_commit_value * (1 - 1e-4) <= rec.m_hat <= seed_commit_value * (1 + 1e-5)


@pytest.mark.parametrize("q, epsilon", [(0.05, 1.0 / 128.0), (1.2000000000000002, 1.0 / 16.0)])
def test_slab_solves_at_the_rounding_floor_converge(q, epsilon):
    # the record test ran both minus slabs to max_iters: 2985 and 2981 of their first 3000 iterates had
    # max|g| <= grad_tol at 1.0-10.8 and 31-182 machine epsilons above a record that never moved again
    env = make_environment(EnvironmentSpec(q=q))
    for variant in ("m_minus", "m_plus"):
        problem = (slab_datum(epsilon, epsilon / 8.0), env, EnergyParams(epsilon, variant))
        (res,) = solve_many([problem], SolverConfig(max_iters=2000))
        assert res.converged and res.iters < 100
        assert res.final_grad_norm <= res.diagnostics["grad_tol"]
        # the value is the energy of the returned field, not the record's
        own = EnergyModel(res.field, env, EnergyParams(epsilon, variant)).energy(res.field.values)
        assert res.value == pytest.approx(own, rel=1e-14)


def test_converged_result_passes_the_stopping_test():
    # the two-point trajectory is not monotone: on this cell it meets the gradient
    # test at a state just above the best energy before the best state meets it
    (rec,) = cell_problems_r(EXAMPLE_CHECKERBOARD, [Direction.from_integers(1, 0)], [8], [15], [(0, 0)], ACC)
    assert rec.converged
    assert rec.solve.final_grad_norm <= ACC.grad_tol


@pytest.mark.parametrize("q, metric", [(0.05, "preconditioned"), (50.0, "gradient")])
def test_indefinite_model_falls_back_to_gradient_metric(e2, q, metric):
    # at q = 50 the -q eps lambda term makes the minus model's symbol negative
    grid = box_grid(e2, (0.0, 0.0), (1.0, 1.0), 1.0 / 16.0)
    grid.values[...] = np.random.default_rng(2).uniform(-1.5, 1.5, grid.shape)
    (res,) = solve_many([(grid, env_mplus(q), EnergyParams(1.0, "m_minus"))], SolverConfig(max_iters=5))
    assert res.diagnostics["metric"] == metric


@pytest.mark.parametrize("qs", [(50.0,), (0.05, 50.0, 0.05)], ids=["alone", "batched"])
def test_non_positive_member_gets_the_metric_i_over_t0(qs):
    problems = random_starts(qs)
    model, metric, u, box = _batch_metric(problems)
    k = qs.index(50.0)
    t0 = solve._initial_step(model)[k]

    def close(x, y):
        return np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    g = model.value_and_gradient(u)[1][box]
    d, _ = _direction(metric, g, u[box])
    assert close(d[k], t0 * g[k])
    s = np.random.default_rng(6).standard_normal(g.shape)
    assert close(metric.norm2(s).ravel()[k], np.sum(s[k] * s[k]) / t0)
    if len(qs) > 1:  # the q = 0.05 members keep the preconditioned metric and its interface correction
        assert not close(d[0], solve._initial_step(model)[0] * g[0])
        assert metric.interface is not None


# ---------------------------------------------------------------------------
# The interface correction of the descent metric
# ---------------------------------------------------------------------------


def _batch_metric(problems):
    """The whole-grid model, the batch's metric, the node values, and the free box the metric acts on."""
    initials, envs, params = zip(*problems)
    model = EnergyModel(list(initials), list(envs), params[0])
    u = np.stack([f.values for f in initials])
    geometry = solve._Geometry(initials[0])
    metric, _ = solve._metric(model, geometry, u)
    return model, metric, u, (slice(None),) + geometry.box


def _direction(metric, g, u):
    """(d, g'd) of the two-point rule's first trial, d = M^-1 g at u, with g'd shaped (members, 1, 1)."""
    rule = solve._TwoPoint(metric, [1.0] * len(g))
    return rule.trial(g, u), np.reshape(rule.gd, (-1, 1, 1))


@pytest.mark.parametrize("case", ["mixed r = 8, datum + noise", "mixed r = 8, solved", "wrapped r = 16, solved"])
def test_interface_metric_is_one_spd_form(case):
    problems = [_wrapped_cell(0, 0, 16)] if case.startswith("wrapped") else MIXED_CELLS
    model, metric, u, box = _batch_metric(problems)
    if case.endswith("solved"):  # a relaxed interface: wide, so its sliding modes are soft
        u = np.stack([res.field.values for res in solve.solve_many(problems, ACC)])
    else:
        free = ~problems[0][0].frozen
        u[:, free] += 0.05 * np.random.default_rng(3).standard_normal(int(free.sum()))
    g = model.value_and_gradient(u)[1][box]
    d, gd = _direction(metric, g, u[box])
    g_dot_d = np.sum(g * d, axis=(1, 2))
    # d = M^-1 g with M the form norm2 measures in, so d'Md = g'd; gd is that number
    np.testing.assert_allclose(metric.norm2(d).ravel(), g_dot_d, rtol=1e-12, atol=0)
    np.testing.assert_allclose(gd.ravel(), g_dot_d, rtol=1e-12, atol=0)
    assert np.all(g_dot_d > 0)

    # P's curvature along the unit phi_hat per lateral mode, and the corrected one, computed directly
    rows = box[-1]
    u_bar = u[box[:-1]].mean(axis=1)
    phi = (u_bar[:, rows.start + 1 : rows.stop + 1] - u_bar[:, rows.start - 1 : rows.stop - 1]) / 2.0
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    phi_hat = phi @ metric.bases[-1]
    p = np.sum(metric.symbol * phi_hat[:, None, :] ** 2, axis=-1, keepdims=True)
    w2 = 12.0 * u_bar[:, rows] ** 2 - 4.0 - 8.0  # W''(u_bar) - W''(1)
    delta = model.cell_volume * model.a.mean(axis=(1, 2)) / model.eps * np.sum(w2 * phi * phi, axis=1)
    expected = np.maximum(p + delta[:, None, None], solve.SOFT_FLOOR * p)

    phi_raw, weight, p_raw = metric._modes
    scale = np.sum(phi_raw * phi_raw, axis=-1)[:, None, None]  # modes leave phi unnormalized
    alpha = 1.0 / (weight * scale + 1.0 / p)
    np.testing.assert_allclose(p_raw / scale, p, rtol=1e-10)  # the closed form in the lateral eigenvalue
    np.testing.assert_allclose(alpha, expected, rtol=1e-9)
    assert np.all(alpha >= solve.SOFT_FLOOR * p * (1 - 1e-12))
    floored = np.isclose(alpha, solve.SOFT_FLOOR * p, rtol=1e-9, atol=0)
    if case == "mixed r = 8, solved":
        assert np.any(alpha < 0.5 * p) and not floored.any()  # softer, above the floor
    if case.startswith("wrapped"):
        assert floored[0, :3].all()  # the lowest sliding modes sit on the floor


def _flat_mean_cell():
    # 8 x 3 nodes, wrapped laterally; the two frozen rows carry the same data, so
    # the lateral means above and below the one free row agree: phi = 0 throughout
    grid = box_grid(Direction.from_integers(0, 1), (0.0, 0.0), (2.0, 0.75), 0.25, frame_width=0.25,
                    periodic_axes=(True, False))
    rng = np.random.default_rng(4)
    edge = rng.uniform(-1.0, 1.0, grid.shape[0])
    grid.values[:, 0] = grid.values[:, 2] = edge
    grid.values[:, 1] = rng.uniform(-1.0, 1.0, grid.shape[0])
    env = make_environment(EXAMPLE_CHECKERBOARD)
    return grid, env, EnergyParams(1.0, "general")


def test_member_with_a_flat_lateral_mean_solves_unchanged(monkeypatch):
    problem = _flat_mean_cell()
    model, metric, u, box = _batch_metric([problem])
    phi, weight, _ = metric.interface.modes(u[box])
    assert not phi.any() and not weight.any()
    cfg = SolverConfig(max_iters=200, grad_tol=1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 on the way
        (res,) = solve_many([problem], cfg)
    assert res.converged and np.isfinite(res.value)

    modes = solve._Interface.modes

    def without_correction(self, u):
        phi, weight, p = modes(self, u)
        return np.zeros_like(phi), np.zeros_like(weight), p

    monkeypatch.setattr(solve._Interface, "modes", without_correction)
    (plain,) = solve_many([problem], cfg)
    assert (res.value, res.iters, res.final_grad_norm) == (plain.value, plain.iters, plain.final_grad_norm)
    assert np.array_equal(res.field.values, plain.field.values)


def _wrapped_cell(degrees, seed, r):
    cube = OrientedCube((0.0, 0.0), float(r), Direction.from_angle_degrees(degrees))
    grid = cube_grid(cube, 0.25, frame_width_for(0.25, 1.0, "cell"), periodic_lateral=True)
    grid.values[...] = profile_values(grid, 1.0)
    return grid, make_environment(EXAMPLE_CHECKERBOARD.with_seed(seed)), EnergyParams(1.0, "general")


def test_e1_seed_24_leaves_its_plateau():
    # the mean-coefficient metric took 469 iterations here, most of them on a
    # plateau 2.5e-3 above the minimum while the interface slid along e1
    (rec,) = cell_problems_r(EXAMPLE_CHECKERBOARD, [Direction.from_angle_degrees(90)], [32], [24], None, ACC, 0.25)
    assert rec.converged
    assert rec.solve.iters <= 250
    assert rec.m_hat <= 188.380500 * (1 + 1e-5)  # the value before the correction, as an upper bound


@pytest.mark.parametrize("seed", [0, 3])
def test_wrapped_e2_cells_converge(seed):
    # a wrapped interface may slide freely: 226 and 220 iterations without the correction
    (res,) = solve_many([_wrapped_cell(0, seed, 16)], ACC)
    assert res.converged
    assert res.iters <= 150


def test_45_degree_seed_4_converges():
    # with a floor of 0.01 on the corrected curvature it ran to max_iters
    (rec,) = cell_problems_r(EXAMPLE_CHECKERBOARD, [Direction.from_angle_degrees(45)], [32], [4], None, ACC, 0.25)
    assert rec.converged
