"""Lockstep batches: a group solved together gives each member the bits it gets alone."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from homlab import cell, solve
from homlab.cell import cell_problems_r, sigma_pair
from homlab.cli import main
from homlab.environment import EnvironmentSpec, make_environment
from homlab.geometry import Direction, OrientedCube
from homlab.grids import U_CAP, EnergyModel, EnergyParams, box_grid, cube_grid, frame_width_for, profile_values
from homlab.harness import build_manifest, load_config, run_cell
from homlab.solve import DivergenceError, SolverConfig, solve_many

from test_grids import slab_datum
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
    # the 16 r = 8 cells of the benchmark's cells_r8_2w workload: one batch of MAX_BATCH_NODES
    "cells-r8-2w": (MIXED_CELLS, ACC),
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
    # the cells-r8-2w batch with the float32 cut lowered to its 24^2 boxes
    "cells-r8-2w-float32": (MIXED_CELLS, ACC),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_matches_each_member_solved_alone(case, monkeypatch):
    problems, cfg = CASES[case]
    if case.endswith("float32"):
        monkeypatch.setattr(solve, "FLOAT32_METRIC_NODES", 24 * 24)
    initials = [initial for initial, _, _ in problems]
    together = solve_many(problems, cfg)
    for (initial, env, p), res in zip(problems, together):
        (alone,) = solve_many([(initial, env, p)], cfg)
        assert res.value == alone.value
        assert res.iters == alone.iters
        assert res.final_grad_norm == alone.final_grad_norm
        assert res.converged == alone.converged
        assert np.array_equal(res.field.values, alone.field.values)
        for key in ("resets", "stop_reason", "metric", "metric_dtype"):
            assert res.diagnostics[key] == alone.diagnostics[key]
        assert res.diagnostics["metric_dtype"] == ("float32" if case.endswith("float32") else "float64")
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


def test_metric_bases_are_float32_from_64_squared_box_nodes():
    # at h = 0.25 the free boxes are 24^2 (r = 8), 56^2 and 64 x 56 (r = 16, framed and wrapped), 120^2 (r = 32)
    for r, dtype in ((8.0, np.float64), (16.0, np.float64), (32.0, np.float32)):
        for wrapped in (False, True):
            geometry = solve._Geometry(profile_cell(1, 45, (0, 0), r=r, wrapped=wrapped)[0])
            assert (geometry.nodes >= solve.FLOAT32_METRIC_NODES) == (dtype == np.float32)
            assert [q.dtype for q in geometry.bases] == [np.dtype(dtype)] * 2


def test_r32_cell_on_the_float32_metric_returns_float64_within_the_reference_band(monkeypatch):
    problem = profile_cell(0, 90, (0, 0), r=32.0)
    initial = problem[0]
    (res,) = solve_many([problem], ACC)
    assert res.converged and res.diagnostics["metric_dtype"] == "float32"
    assert res.field.values.dtype == np.float64 and type(res.value) is float
    assert np.array_equal(res.field.values[initial.frozen], initial.values[initial.frozen])
    monkeypatch.setattr(solve, "FLOAT32_METRIC_NODES", initial.values.size + 1)  # above every box
    (exact,) = solve_many([problem], ACC)
    assert exact.diagnostics["metric_dtype"] == "float64"
    # the tolerance of perfbench/reference.json: an upper bound may fall further than it may rise
    assert -1e-4 <= (res.value - exact.value) / exact.value <= 1e-5


def test_r32_cell_with_secant_pairs_converges_in_fewer_iterations_within_the_reference_band(monkeypatch):
    problem = profile_cell(0, 90, (0, 0), r=32.0)
    initial = problem[0]
    (res,) = solve_many([problem], ACC)
    assert res.converged and res.diagnostics["secant_pairs"] == solve.SECANT_PAIRS > 0
    assert np.array_equal(res.field.values[initial.frozen], initial.values[initial.frozen])
    # the two-point step in the same float32 metric
    monkeypatch.setattr(solve, "_Memory", lambda metric, batch, nodes, pairs: solve._TwoPoint(metric, [1.0] * batch))
    (two_point,) = solve_many([problem], ACC)
    assert two_point.converged and two_point.diagnostics["secant_pairs"] == 0
    assert res.iters < two_point.iters
    assert -1e-4 <= (res.value - two_point.value) / two_point.value <= 1e-5


def _secant_spies(monkeypatch, energy_of_call=None):
    """Per trial of the memory, (steps of the pending pairs, pairs held on entry), and whether it touches U_CAP."""
    seen, at_cap, calls = [], [], []
    trial = solve._Memory.trial
    value_and_gradient = EnergyModel.value_and_gradient

    def spy_trial(self, g, u):
        seen.append((list(self.pending), [len(order) for order in self.order]))
        return trial(self, g, u)

    def spy_energy(self, u):
        calls.append(None)
        if len(at_cap) < len(seen):  # the first call after a direction evaluates its trial
            at_cap.append(bool(np.max(np.abs(u)) >= U_CAP))
        e, g = value_and_gradient(self, u)
        return (energy_of_call(len(calls), e), g) if energy_of_call else (e, g)

    monkeypatch.setattr(solve._Memory, "trial", spy_trial)
    monkeypatch.setattr(EnergyModel, "value_and_gradient", spy_energy)
    return seen, at_cap


def test_a_clipped_step_of_the_memory_restarts_from_the_record_without_pairs(monkeypatch):
    # a start next to the value cap whose memory sends a step past it, on a 16^2 box with the float32 cut lowered to it
    (problem,) = random_starts((0.05,), seed=3, amplitudes=(2.99,))
    monkeypatch.setattr(solve, "FLOAT32_METRIC_NODES", problem[0].values.size)
    seen, at_cap = _secant_spies(monkeypatch)
    (res,) = solve_many([problem], SolverConfig(max_iters=3000))
    assert res.converged and res.diagnostics["secant_pairs"] > 0
    clipped = at_cap[: len(seen) - 1]  # the trials whose pairs directions 2, 3, ... may store
    assert any(clipped) and res.diagnostics["resets"] == sum(clipped)
    assert [steps[0] is None for steps, _ in seen[1:]] == clipped
    assert all(held == [0] for (_, held), c in zip(seen[1:], clipped) if c)
    # the restart's step is a tenth of the clipped one, then the unit step returns
    for n, c in enumerate(clipped[:-1]):
        if c:
            assert seen[n + 2][0] == [0.1]


def test_a_reset_step_stores_no_secant_pair_and_drops_the_pairs(monkeypatch):
    problem = MIXED_CELLS[0]
    monkeypatch.setattr(solve, "FLOAT32_METRIC_NODES", 24 * 24)  # its free box
    # the trial of iteration 5 (energy call 6) is not finite: the member restarts from its record
    seen, at_cap = _secant_spies(monkeypatch, lambda call, e: np.full_like(e, np.inf) if call == 6 else e)
    (res,) = solve_many([problem], ACC)
    assert res.converged and res.diagnostics["secant_pairs"] > 0 and res.diagnostics["resets"] == 1
    assert not any(at_cap)
    assert seen[4] == ([1.0], [3])  # direction 5 stores the pair of step 4 next to those of steps 1-3
    assert seen[5] == ([None], [0])  # direction 6 follows the reset: no pair and none held
    assert seen[6][0] == [0.01]  # the step after the reset, cut to a hundredth, gives a pair


def test_clipped_trials_are_measured_exactly(monkeypatch):
    problems, cfg = CASES["clipped-starts"]
    exact = []
    norm2 = solve._Metric.norm2
    monkeypatch.setattr(solve._Metric, "norm2", lambda self, s: exact.append(len(s)) or norm2(self, s))
    for k, clipped in ((2, True), (1, False)):
        exact.clear()
        solve_many([problems[k]], cfg)
        assert bool(exact) == clipped  # only a clipped trial needs the exact s'Ms


def test_solve_many_groups_by_geometry_and_keeps_submission_order():
    problems = [MIXED_CELLS[0], profile_cell(1, 0, (0, 0), r=4.0), MIXED_CELLS[3], random_starts((0.05,))[0]]
    results = solve_many(problems, ACC)
    for (initial, env, params), res in zip(problems, results):
        (alone,) = solve_many([(initial, env, params)], ACC)
        assert res.value == alone.value and res.iters == alone.iters
    assert [res.diagnostics["batch"] for res in results] == [2, 1, 2, 1]


def test_a_group_larger_than_max_batch_nodes_runs_in_several_batches(monkeypatch):
    monkeypatch.setattr(solve, "MAX_BATCH_NODES", 2 * 32 * 32)  # two r = 8 cells
    problems = MIXED_CELLS[:5]
    together = solve_many(problems, ACC)
    assert [res.diagnostics["batch"] for res in together] == [2, 2, 2, 2, 1]
    for (initial, env, params), res in zip(problems, together):
        (alone,) = solve_many([(initial, env, params)], ACC)
        assert res.value == alone.value and res.iters == alone.iters
        assert np.array_equal(res.field.values, alone.field.values)


def test_divergence_of_one_member_leaves_the_others_untouched(monkeypatch):
    problems = MIXED_CELLS[:3]
    broken = problems[1][0].copy_with(problems[1][0].values.copy())
    broken.values[~broken.frozen] = np.nan
    initials = [problems[0][0], broken, problems[2][0]]
    envs = [env for _, env, _ in problems]
    # the two-point step, then the secant pairs with the float32 cut lowered to the 24^2 boxes:
    # the broken member leaves the batch before its first direction
    for cut in (solve.FLOAT32_METRIC_NODES, 24 * 24):
        monkeypatch.setattr(solve, "FLOAT32_METRIC_NODES", cut)
        together = solve._solve_batch(initials, envs, problems[0][2], ACC, solve._Geometry(initials[0]))
        assert isinstance(together[1], DivergenceError)
        for k in (0, 2):
            (alone,) = solve_many([problems[k]], ACC)
            assert together[k].value == alone.value and together[k].iters == alone.iters
            assert together[k].diagnostics["secant_pairs"] == (0 if cut > 24 * 24 else solve.SECANT_PAIRS)
        with pytest.raises(DivergenceError):
            solve_many([problems[0], (broken, envs[1], problems[1][2])], ACC)


# framed r = 8/16/32 cells (two at r = 16, one batch), a wrapped cell, and q = 50 and q = 0.05
# starts (gradient and preconditioned metric): five batches of different weights
WORKER_SET = (
    [profile_cell(1, 0, (0, 0), r=r) for r in (8.0, 16.0, 32.0)]
    + [profile_cell(2, 45, (0.25, 0), r=16.0), profile_cell(1, 0, (0, 0), r=16.0, wrapped=True)]
    + random_starts((50.0, 0.05))
)
WORKER_CFG = SolverConfig(max_iters=300, grad_tol=6.25e-5)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """pids of the workers this process forks."""
    started = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return started


@pytest.mark.parametrize("reverse", [False, True], ids=["submitted", "reversed"])
def test_results_do_not_depend_on_the_worker_count_or_order(monkeypatch, forks, reverse):
    monkeypatch.setattr(solve, "usable_cpus", lambda: 1)
    serial = solve_many(WORKER_SET, WORKER_CFG)
    assert {res.diagnostics["metric"] for res in serial} == {"gradient", "preconditioned"}
    assert {res.diagnostics["stop_reason"] for res in serial} == {"converged", "max_iters"}
    problems = WORKER_SET[::-1] if reverse else WORKER_SET
    drop = lambda diagnostics: {k: v for k, v in diagnostics.items() if k != "wall_ms"}
    for workers in (1, 2, 3):
        monkeypatch.setattr(solve, "usable_cpus", lambda: workers)
        forks.clear()
        results = solve_many(problems, WORKER_CFG)
        assert_no_child_left()
        assert len(forks) == workers - 1
        for res, alone in zip(results[::-1] if reverse else results, serial, strict=True):
            assert (res.value, res.iters, res.final_grad_norm, res.converged) == (
                alone.value, alone.iters, alone.final_grad_norm, alone.converged
            )
            assert res.field.values.tobytes() == alone.field.values.tobytes()
            assert res.field.values.shape == alone.field.values.shape
            assert drop(res.diagnostics) == drop(alone.diagnostics)


@pytest.mark.parametrize("r_bad, r_good, solved_here", [(8.0, 32.0, [1]), (32.0, 8.0, [0])], ids=["worker", "caller"])
def test_the_batch_error_of_a_worker_or_the_caller_is_raised(monkeypatch, forks, r_bad, r_good, solved_here):
    # the heavier batch stays with the caller; a worker's error comes back with its type and message
    monkeypatch.setattr(solve, "usable_cpus", lambda: 2)
    bad, env, params = profile_cell(1, 0, (0, 0), r=r_bad)
    bad.values[bad.frozen] *= 2 * U_CAP
    here = []
    share = solve._solve_share

    def spy(problems, batches, indices, cfg):
        here.extend(i for b in indices for i in batches[b][0])
        return share(problems, batches, indices, cfg)

    monkeypatch.setattr(solve, "_solve_share", spy)
    with pytest.raises(ValueError, match="^frozen boundary data exceeds the value cap$"):
        solve_many([(bad, env, params), profile_cell(2, 0, (0, 0), r=r_good)], ACC)
    assert_no_child_left()
    assert len(forks) == 1
    assert here == solved_here


@pytest.mark.parametrize("reverse", [False, True], ids=["submitted", "reversed"])
def test_the_first_divergence_in_submission_order_is_raised_across_workers(monkeypatch, forks, reverse):
    # each batch's DivergenceError names its grid shape, so the raised one shows whose it is
    solve_batch = solve._solve_batch

    def naming(initials, *args):
        found = solve_batch(initials, *args)
        return [DivergenceError(f"{initials[0].shape}") if isinstance(x, DivergenceError) else x for x in found]

    monkeypatch.setattr(solve, "_solve_batch", naming)
    monkeypatch.setattr(solve, "usable_cpus", lambda: 2)
    broken = []
    for r in (8.0, 32.0):  # the r = 32 batch stays with the caller, r = 8 goes to the worker
        grid, env, params = profile_cell(1, 0, (0, 0), r=r)
        grid.values[~grid.frozen] = np.nan
        broken.append((grid, env, params))
    problems = [broken[0], broken[1], profile_cell(1, 0, (0, 0), r=16.0)]
    if reverse:
        problems = problems[::-1]
    with pytest.raises(DivergenceError) as raised:
        solve_many(problems, ACC)
    assert_no_child_left()
    assert len(forks) == 1
    first = broken[1] if reverse else broken[0]
    assert str(raised.value) == f"{first[0].shape}"


def test_a_share_whose_fork_fails_is_solved_by_the_caller(monkeypatch):
    monkeypatch.setattr(solve, "usable_cpus", lambda: 1)
    problems = [profile_cell(1, 0, (0, 0), r=r) for r in (8.0, 16.0, 32.0)]
    serial = solve_many(problems, ACC)

    def no_process(*_):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(solve, "usable_cpus", lambda: 3)
    for res, alone in zip(solve_many(problems, ACC), serial, strict=True):
        assert res.value == alone.value and res.iters == alone.iters
        assert res.field.values.tobytes() == alone.field.values.tobytes()


def test_workers_never_outnumber_the_batches(monkeypatch, forks):
    monkeypatch.setattr(solve, "usable_cpus", lambda: 64)
    solve_many([profile_cell(1, 0, (0, 0), r=r) for r in (8.0, 16.0, 32.0)], ACC)
    assert_no_child_left()
    assert len(forks) == 2
    forks.clear()
    solve_many(MIXED_CELLS, ACC)  # one batch: solved here, no batch is split
    assert forks == []


def test_run_cell_with_mixed_r_returns_records_in_submission_order(tmp_path):
    text = GOOD_CONFIG.replace("r_list = 4 8", "r_list = 8 4").replace("x0_list = 0,0", "x0_list = 0,0 0.25,0")
    path, _ = write_config(tmp_path, text)
    cfg = load_config(path)
    records = run_cell(cfg, build_manifest(cfg, "cell"))
    expected = [
        (nu, r, seed, i)
        for nu in cfg.nu_list
        for r in cfg.r_list
        for seed in cfg.seeds
        for i in range(len(cfg.x0_list))
    ]
    assert [(rec.cell.nu, rec.cell.r, rec.cell.seed, rec.cell.x0_index) for rec in records] == expected
    for rec in records[:: len(cfg.x0_list) + 1]:
        item = rec.cell
        x0 = cfg.x0_list[item.x0_index]
        (alone,) = cell_problems_r(cfg.env, [item.nu], [item.r], [item.seed], [x0], cfg.solver, cfg.h)
        assert rec.m_hat == alone.m_hat
        assert rec.solve.iters == alone.solve.iters


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


def test_sigma_pair_evaluates_the_minus_energy_on_the_solved_plus_fields(monkeypatch):
    q, scales, cfg = 0.05, (0.25, 0.125), SolverConfig(max_iters=20000)
    solves = []

    def counting(problems, *args, **kwargs):
        solves.extend(params.variant for _, _, params in problems)
        return solve_many(problems, *args, **kwargs)

    monkeypatch.setattr(cell, "solve_many", counting)
    minus, plus = sigma_pair(q, scales, cfg)
    assert sorted(solves) == ["m_minus"] * len(scales) + ["m_plus"] * len(scales)

    # the re-solve it replaces is deterministic, so the pair is the same to the bit
    monkeypatch.undo()
    env = make_environment(EnvironmentSpec(q=q))
    per_eps = {}
    for eps in plus.per_epsilon:
        datum = slab_datum(eps, eps / 8.0)
        (own,) = solve_many([(datum, env, EnergyParams(eps, "m_minus"))], cfg)
        (res,) = solve_many([(datum, env, EnergyParams(eps, "m_plus"))], cfg)
        assert res.value == plus.per_epsilon[eps]
        again = EnergyModel(res.field, env, EnergyParams(eps, "m_minus")).energy(res.field.values)
        per_eps[eps] = min(own.value, again)
    assert minus.per_epsilon == per_eps
    assert minus.value == min(per_eps.values())
    assert set(minus.solves) == set(plus.solves) == set(scales)


def test_members_must_share_their_geometry():
    (a, env, params), (b, _, _) = MIXED_CELLS[0], profile_cell(1, 0, (0, 0), r=4.0)
    with pytest.raises(ValueError, match="share"):
        EnergyModel([a, b], [env, env], params)
