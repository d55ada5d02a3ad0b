"""Lockstep batches: a group solved together gives each member the bits it gets alone."""

import json
from pathlib import Path

import numpy as np
import pytest

from homlab import cell, solve
from homlab.cell import EstimateError, cell_problem_r, ergodic_average, sigma_pair
from homlab.cli import main
from homlab.core import DoubleWell
from homlab.environment import EnvironmentSpec, make_environment
from homlab.geometry import Direction, OrientedCube
from homlab.grids import EnergyModel, EnergyParams, box_grid, cube_grid, frame_width_for, profile_values
from homlab.harness import load_config, run_cell
from homlab.solve import DivergenceError, SolverConfig, minimize_energy, solve_many

from test_harness import GOOD_CONFIG, write_config

CHECKERBOARD = EnvironmentSpec(  # configs/example.ini
    kind="checkerboard", a_range=(0.8, 1.2), b_range=(-0.04, 0.05), c_range=(0.8, 1.2),
    q=0.05, c1=0.8, c2=1.2, seed=0,
)
ACC = SolverConfig(max_iters=25000, grad_tol=6.25e-5)


def profile_cell(seed, degrees, x0, r=8.0, h=0.25, wrapped=False):
    nu = Direction.from_angle_degrees(degrees)
    cube = OrientedCube(tuple(r * v for v in x0), r, nu)
    grid = cube_grid(cube, h, frame_width_for(h, 1.0, "cell"), periodic_lateral=wrapped)
    grid.values[...] = profile_values(grid, 1.0)
    return grid, make_environment(CHECKERBOARD.with_seed(seed)), EnergyParams(1.0, "general")


def random_starts(qs, seed=0, amplitudes=None):
    rng = np.random.default_rng(seed)
    problems = []
    for q, amplitude in zip(qs, amplitudes or [1.5] * len(qs)):
        grid = box_grid(Direction.from_integers(0, 1), (0.0, 0.0), (1.0, 1.0), 1.0 / 16.0)
        grid.values[...] = rng.uniform(-amplitude, amplitude, grid.shape)
        problems.append((grid, make_environment(EnvironmentSpec(q=q)), EnergyParams(1.0, "m_minus")))
    return problems


MIXED_CELLS = [profile_cell(seed, deg, x0) for seed in (1, 2) for deg in (0, 45, 90, 135) for x0 in ((0, 0), (0.25, 0))]

WRAPPED = [(1, 0, (0, 0)), (2, 45, (0.25, 0)), (1, 90, (0, 0)), (2, 135, (0, 0))]

CASES = {
    # directions, seeds and centers at r = 8; frozen frames
    "mixed-cells": (MIXED_CELLS[::3], ACC),
    # laterally periodic windows; members converge at different iterations
    "wrapped-cells": ([profile_cell(seed, deg, x0, wrapped=True) for seed, deg, x0 in WRAPPED], ACC),
    # members stop at max_iters while others converge
    "max-iters": (MIXED_CELLS[:6], SolverConfig(max_iters=22, grad_tol=6.25e-5)),
    # q = 50 starts get the gradient metric M = I/t0; q = 0.05 ones are preconditioned
    "positivity-starts": (random_starts((50.0, 0.05, 50.0, 0.05)), SolverConfig(max_iters=3000)),
    # starts near the value cap: some first trials are clipped, so their s'Ms is measured exactly
    "clipped-starts": (
        random_starts((0.05,) * 3, amplitudes=(2.9, 1.5, 2.9)), SolverConfig(max_iters=3000)
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_matches_each_member_solved_alone(case):
    problems, cfg = CASES[case]
    initials = [initial for initial, _, _ in problems]
    together = solve_many(problems, cfg)
    for (initial, env, p), res in zip(problems, together):
        alone = minimize_energy(initial, env, p, cfg)
        assert res.value == alone.value
        assert res.iters == alone.iters
        assert res.final_grad_norm == alone.final_grad_norm
        assert res.converged == alone.converged
        assert np.array_equal(res.field.values, alone.field.values)
        for key in ("resets", "stop_reason", "metric"):
            assert res.diagnostics[key] == alone.diagnostics[key]
        # frozen nodes keep their boundary data bit for bit
        assert np.array_equal(res.field.values[initial.frozen], initial.values[initial.frozen])
        assert res.diagnostics["batch"] == len(problems)
    if case == "max-iters":
        assert {res.diagnostics["stop_reason"] for res in together} == {"converged", "max_iters"}
    if case == "wrapped-cells":
        assert all(initial.periodic[0] for initial in initials)
        assert len({res.iters for res in together}) > 1
    if case == "positivity-starts":
        assert [res.diagnostics["metric"] for res in together] == ["gradient", "preconditioned"] * 2


def test_clipped_trials_are_measured_exactly(monkeypatch):
    problems, cfg = CASES["clipped-starts"]
    exact = []
    norm2 = solve._Metric.norm2
    monkeypatch.setattr(solve._Metric, "norm2", lambda self, s: exact.append(len(s)) or norm2(self, s))
    for k, clipped in ((2, True), (1, False)):
        exact.clear()
        minimize_energy(*problems[k], cfg)
        assert bool(exact) == clipped  # only a clipped trial needs the exact s'Ms


def test_solve_many_groups_by_geometry_and_keeps_submission_order():
    problems = [MIXED_CELLS[0], profile_cell(1, 0, (0, 0), r=4.0), MIXED_CELLS[3], random_starts((0.05,))[0]]
    results = solve_many(problems, ACC)
    for (initial, env, params), res in zip(problems, results):
        alone = minimize_energy(initial, env, params, ACC)
        assert res.value == alone.value and res.iters == alone.iters
    assert [res.diagnostics["batch"] for res in results] == [2, 1, 2, 1]


def test_divergence_of_one_member_leaves_the_others_untouched():
    problems = MIXED_CELLS[:3]
    broken = problems[1][0].copy_with(problems[1][0].values.copy())
    broken.values[~broken.frozen] = np.nan
    initials = [problems[0][0], broken, problems[2][0]]
    envs = [env for _, env, _ in problems]
    together = solve._solve_batch(initials, envs, problems[0][2], ACC, solve._Geometry(initials[0]))
    assert isinstance(together[1], DivergenceError)
    for k in (0, 2):
        alone = minimize_energy(*problems[k], ACC)
        assert together[k].value == alone.value and together[k].iters == alone.iters
    with pytest.raises(DivergenceError):
        solve_many([problems[0], (broken, envs[1], problems[1][2])], ACC)


def test_run_cell_with_mixed_r_returns_records_in_submission_order(tmp_path):
    text = GOOD_CONFIG.replace("r_list = 4 8", "r_list = 8 4").replace("x0_list = 0,0", "x0_list = 0,0 0.25,0")
    path, _ = write_config(tmp_path, text)
    cfg = load_config(path)
    records = run_cell(cfg)
    expected = [
        (nu, r, seed, i)
        for nu in cfg.nu_list
        for r in cfg.r_list
        for seed in cfg.seeds
        for i in range(len(cfg.x0_list))
    ]
    assert [(rec.nu, rec.r, rec.seed, rec.x0_index) for rec in records] == expected
    for rec in records[:: len(cfg.x0_list) + 1]:
        alone = cell_problem_r(
            make_environment(cfg.env.with_seed(rec.seed)), rec.nu, rec.r, cfg.x0_list[rec.x0_index], cfg.solver, cfg.h
        )
        assert rec.m_hat == alone.m_hat
        assert rec.diagnostics["iters"] == alone.diagnostics["iters"]


def test_ergodic_average_excludes_non_converged_solves(e2):
    # with one iteration no cell converges; the mean of such values read 17.23, converged cells give about 2.2
    with pytest.warns(UserWarning, match="non-converged"), pytest.raises(EstimateError):
        ergodic_average(CHECKERBOARD, e2, 8, (0, 1), SolverConfig(max_iters=1), 0.25)


def test_homogenize_and_sweep_record_every_cell_solve_in_the_manifest(tmp_path):
    text = GOOD_CONFIG.replace("nu_list = 0 p:3,4", "nu_list = 90")
    path, out = write_config(tmp_path, text)
    for command in ("homogenize", "sweep"):
        assert main([command, "--config", path]) == 0
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["records"] == [
            {"work_id": f"homogenize/nu=90/r={r}/x0=0", "seed": seed} for r in (4, 8) for seed in (0, 1)
        ]


def test_sigma_pair_evaluates_the_minus_energy_on_the_solved_plus_fields(monkeypatch, quartic):
    q, scales, cfg = 0.05, (0.25, 0.125), SolverConfig(max_iters=20000)
    solves = []

    def counting(*args, **kwargs):
        solves.append(args[2].variant)
        return minimize_energy(*args, **kwargs)

    monkeypatch.setattr(cell, "minimize_energy", counting)
    minus, plus = sigma_pair(quartic, q, scales, cfg)
    assert sorted(solves) == ["m_minus"] * len(scales) + ["m_plus"] * len(scales)

    # the re-solve it replaces is deterministic, so the pair is the same to the bit
    monkeypatch.undo()
    env = make_environment(EnvironmentSpec(q=q), quartic)
    per_eps = dict(cell.sigma_pm("minus", quartic, q, scales, cfg).per_epsilon)
    for eps in plus.per_epsilon:
        res = cell._slab_solve("m_plus", q, eps, eps / 8.0, cfg, quartic)
        assert res.value == plus.per_epsilon[eps]
        again = EnergyModel(res.field, env, EnergyParams(eps, "m_minus")).energy(res.field.values)
        per_eps[eps] = min(per_eps[eps], again)
    assert minus.per_epsilon == per_eps
    assert minus.value == min(per_eps.values())
    assert set(minus.fields) == set(plus.fields) == set(scales)


def test_members_must_share_their_geometry():
    (a, env, params), (b, _, _) = MIXED_CELLS[0], profile_cell(1, 0, (0, 0), r=4.0)
    with pytest.raises(ValueError, match="share"):
        EnergyModel([a, b], [env, env], params)
    with pytest.raises(ValueError, match="share the double well"):
        other = make_environment(CHECKERBOARD, DoubleWell(c0=2.0))
        EnergyModel([a, a], [env, other], params)
