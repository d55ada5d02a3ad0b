"""Acceptance suite: every criterion at its stated tolerance, one pass/fail line each.

Heavy solves reuse the tuned quick solver profile (loose gradient tolerance);
all asserted quantities are energy-level comparisons far above that tolerance.
Everything is seeded and deterministic, so reruns reproduce these numbers
bit-for-bit on one platform.
"""

import time

import numpy as np

from homlab.core import DoubleWell, compute_c_eta
from homlab.environment import EnvironmentSpec, make_environment, shift_environment
from homlab.geometry import Direction, LatticeCuboid, OrientedCube
from homlab.grids import EnergyModel, EnergyParams, cube_grid
from homlab.solve import SolverConfig
from homlab.cell import (
    bounds_check,
    cell_problem_r,
    eps_scaled_cell,
    f_hom_estimate,
    glued_partition_energy,
    mu_nu,
    sigma_pair,
    sigma_pm,
    verify_positivity,
)

from _oracles import line_constant

WELL = DoubleWell()
E1 = Direction.from_integers(1)
E2 = Direction.from_integers(0, 1)
ACC = SolverConfig(max_iters=25000, grad_tol=1e-3 * 0.25**2)

STRONG_CHECKERBOARD = EnvironmentSpec(
    kind="checkerboard", a_range=(0.8, 1.2), b_range=(-0.05, 0.05), c_range=(0.8, 1.2),
    q=0.05, c1=0.8, c2=1.2, seed=0,
)
MILD_CHECKERBOARD = EnvironmentSpec(
    kind="checkerboard", a_range=(0.95, 1.05), b_range=(0.0, 0.05), c_range=(0.95, 1.05),
    q=0.05, c1=0.8, c2=1.2, seed=0,
)
PINNED = EnvironmentSpec(
    kind="pinned", a_range=(0.55, 1.7), b_range=(0.0, 0.05), c_range=(0.55, 1.7),
    q=0.05, c1=0.5, c2=1.8, seed=0,
)
HOMOGENEOUS = EnvironmentSpec(q=0.05, b_range=(0.05, 0.05))


def report(num, name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num:2d} ({name}): {detail}  [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert passed, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget ({elapsed:.1f}s)"


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    env = make_environment(STRONG_CHECKERBOARD.with_seed(17))
    params = EnergyParams(1.0, "general")
    cube = OrientedCube((0.0, 0.0), 4.0, E2)
    worst = 0.0
    for k in range(50):
        g = cube_grid(cube, 0.125, frame_width=0.25)  # 32 x 32 nodes
        g.values[...] = rng.uniform(-1.5, 1.5, g.shape)
        model = EnergyModel(g, env, params)
        grad = model.gradient(g.values)
        scale = np.max(np.abs(grad))
        for _ in range(20):
            v = rng.normal(size=g.shape)
            v[g.frozen] = 0.0
            d = 1e-6
            fd = (model.energy(g.values + d * v) - model.energy(g.values - d * v)) / (2 * d)
            an = float(np.sum(grad * v))
            worst = max(worst, abs(fd - an) / max(abs(an), 1e-12))
        if k < 5:  # full per-node check on a subset of fields
            for node in map(tuple, np.argwhere(~g.frozen)):
                d = 1e-6 * max(1.0, abs(g.values[node]))
                up = g.values.copy()
                up[node] += d
                dn = g.values.copy()
                dn[node] -= d
                fd = (model.energy(up) - model.energy(dn)) / (2 * d)
                worst = max(worst, abs(fd - grad[node]) / scale)
    report(1, "gradient correctness", worst < 1e-5, f"max rel err {worst:.2e}", time.perf_counter() - t0, 10)


def test_criterion_02_growth_sandwich():
    t0 = time.perf_counter()
    envs = [
        EnvironmentSpec(q=0.05, b_range=(0.05, 0.05)),
        EnvironmentSpec(q=0.05, b_range=(-0.05, -0.05)),
        STRONG_CHECKERBOARD,
        EnvironmentSpec(
            kind="checkerboard", a_range=(0.9, 1.1), b_range=(0.0, 0.05), c_range=(0.9, 1.1),
            q=0.05, c1=0.9, c2=1.2, seed=5,
        ),
        EnvironmentSpec(
            kind="pinned", a_range=(0.7, 1.5), b_range=(0.0, 0.05), c_range=(0.7, 1.5),
            q=0.05, c1=0.7, c2=1.5, seed=9,
        ),
    ]
    # one env's b range dips slightly below -c1*q (fixed by the bounds experiment
    # definition); the sandwich is asserted for the nodewise-valid remainder
    rng = np.random.default_rng(7)
    violations = 0
    checked = 0
    for spec in envs:
        env = make_environment(spec)
        cube = OrientedCube((0.0, 0.0), 2.0, E2)
        for _ in range(200):
            g = cube_grid(cube, 0.25, frame_width=0.0)
            g.values[...] = rng.uniform(-2.5, 2.5, g.shape)
            dens = EnergyModel(g, env, EnergyParams(1.0, "general")).energy_density(g.values)
            lo = spec.c1 * EnergyModel(g, env, EnergyParams(1.0, "m_minus")).energy_density(g.values)
            hi = spec.c2 * EnergyModel(g, env, EnergyParams(1.0, "m_plus")).energy_density(g.values)
            slack = 1e-12 * (1.0 + np.abs(dens))
            checked += 1
            if np.any(dens < lo - slack) or np.any(dens > hi + slack):
                violations += 1
    report(
        2, "growth sandwich", violations == 0,
        f"{violations} violations in {checked} fields (nodewise)", time.perf_counter() - t0, 10,
    )


def test_criterion_03_positivity_regime():
    t0 = time.perf_counter()
    rep = verify_positivity(0.05, (1.0, 1.0), 1.0 / 16.0, 5, SolverConfig(max_iters=8000), seed=0)
    report(
        3, "positivity regime", rep.minimum >= -1e-6,
        f"min over {len(rep.per_start)} starts = {rep.minimum:.3e}", time.perf_counter() - t0, 60,
    )


def test_criterion_04_sigma_plus_oracle():
    t0 = time.perf_counter()
    est = sigma_pm(
        "plus", WELL, 1.0, (0.25, 0.125, 0.0625),
        SolverConfig(max_iters=40000), h_for=lambda eps: eps / 16.0,
    )
    reference = line_constant(b=1.0, length=16.0, h=0.01)
    rel = abs(est.value - reference) / reference
    mm_bound = 8.0 / 3.0  # 2*sqrt(q)*int sqrt(W) at q = 1
    ok = rel <= 0.02 and est.value >= mm_bound - 1e-6
    report(
        4, "sigma+ vs dense oracle", ok,
        f"sigma+ = {est.value:.6f}, oracle = {reference:.6f} (rel {rel:.2e}), >= 8/3 - 1e-6",
        time.perf_counter() - t0, 120,
    )


def test_criterion_05_isotropy():
    t0 = time.perf_counter()
    angles = (0.0, 22.5, 45.0, 67.5, 90.0, 112.5, 135.0, 157.5)
    estimates = []
    for ang in angles:
        nu = Direction.from_angle_degrees(ang)
        est = f_hom_estimate(HOMOGENEOUS, nu, (8, 16, 32), (0,), ACC, 0.25)
        estimates.append(est.estimate)
    estimates = np.array(estimates)
    reference = line_constant(b=0.05, length=32.0, h=0.02)
    rel = np.max(np.abs(estimates - reference)) / reference
    spread = (estimates.max() - estimates.min()) / estimates.mean()
    ok = rel <= 0.05 and spread <= 0.03
    report(
        5, "isotropy", ok,
        f"f_hom in [{estimates.min():.5f}, {estimates.max():.5f}], oracle {reference:.5f} "
        f"(worst rel {rel:.2e}), spread {spread:.2e}",
        time.perf_counter() - t0, 1800,
    )


def test_criterion_06_rescaling_identity():
    t0 = time.perf_counter()
    env = make_environment(STRONG_CHECKERBOARD.with_seed(7))
    rec_r = cell_problem_r(env, E2, 16, (0.0, 0.0), ACC, 0.25)
    rec_e = eps_scaled_cell(env, E2, 1.0, 1.0 / 16.0, (0.0, 0.0), ACC, h=0.25 / 16.0)
    rel = abs(rec_r.normalized - rec_e.normalized) / rec_r.normalized
    report(
        6, "rescaling identity", rel <= 0.01,
        f"r-side {rec_r.normalized:.6f} vs eps-side {rec_e.normalized:.6f} (rel {rel:.2e})",
        time.perf_counter() - t0, 300,
    )


def test_criterion_07_subadditivity():
    t0 = time.perf_counter()
    env = make_environment(STRONG_CHECKERBOARD.with_seed(3))
    rng = np.random.default_rng(23)
    worst = -np.inf
    for k in range(10):
        length = float(rng.choice((4.0, 6.0, 8.0)))
        n_cuts = int(rng.integers(1, 4))
        grid_points = np.arange(0.5, length, 0.5)
        cuts = sorted(rng.choice(grid_points, size=min(n_cuts, len(grid_points)), replace=False))
        cub = LatticeCuboid(((0.0, length),), E2)
        out = glued_partition_energy(env, cub, cuts, ACC, 0.25)
        worst = max(worst, out["slack"])
    report(
        7, "constructive subadditivity", worst <= 1e-9,
        f"max(glued - sum of part minima) = {worst:.2e} over 10 partitions",
        time.perf_counter() - t0, 600,
    )


def test_criterion_08_stationarity():
    t0 = time.perf_counter()
    env = make_environment(STRONG_CHECKERBOARD.with_seed(11))
    cub = LatticeCuboid(((0.0, 2.0),), E2)
    worst = 0.0
    for z in ((1,), (-1,), (2,), (-3,), (5,)):
        shifted_env = shift_environment(env, tuple(int(v) for v in cub.lattice_shift_vector(z)))
        a = mu_nu(shifted_env, cub, ACC, 0.25)
        b = mu_nu(env, cub.shifted(z), ACC, 0.25)
        worst = max(worst, abs(a.value - b.value) / max(abs(b.value), 1e-300))
    report(
        8, "stationarity exactness", worst <= 1e-9,
        f"max rel gap over 5 lattice shifts = {worst:.2e}", time.perf_counter() - t0, 600,
    )


def test_criterion_09_bounds():
    t0 = time.perf_counter()
    minus, plus = sigma_pair(WELL, 0.05, (0.25, 0.125, 0.0625), SolverConfig(max_iters=40000))
    details = []
    ok = True
    for ang in (0.0, 45.0, 90.0, 135.0):
        nu = Direction.from_angle_degrees(ang)
        est = f_hom_estimate(STRONG_CHECKERBOARD, nu, (8, 16, 32), (0, 1, 2, 3), ACC, 0.25)
        rep = bounds_check(est.estimate, minus.value, plus.value, 0.8, 1.2, slack=0.05)
        ok = ok and rep.passed
        details.append(f"{ang:g}deg: {est.estimate:.4f}")
    window = bounds_check(0.0, minus.value, plus.value, 0.8, 1.2, slack=0.05)
    report(
        9, "sandwich bounds", ok,
        f"f_hom {{{', '.join(details)}}} within [{window.lower:.4f}, {window.upper:.4f}]",
        time.perf_counter() - t0, 1800,
    )


def test_criterion_10_ergodic_concentration():
    t0 = time.perf_counter()
    seeds = range(16)
    v8 = np.array([
        cell_problem_r(make_environment(STRONG_CHECKERBOARD.with_seed(s)), E2, 8, (0, 0), ACC, 0.25).normalized
        for s in seeds
    ])
    v32 = np.array([
        cell_problem_r(make_environment(STRONG_CHECKERBOARD.with_seed(s)), E2, 32, (0, 0), ACC, 0.25).normalized
        for s in seeds
    ])
    std8, std32 = v8.std(ddof=1), v32.std(ddof=1)
    pinned_limits = np.array([
        f_hom_estimate(PINNED, E2, (8, 16), (s,), ACC, 0.25).estimate for s in range(8)
    ])
    pinned_range = pinned_limits.max() - pinned_limits.min()
    ok = std32 <= std8 and pinned_range > 5.0 * std32
    report(
        10, "ergodic concentration", ok,
        f"std r=8 {std8:.4f} -> r=32 {std32:.4f}; pinned limit range {pinned_range:.3f} > 5*{std32:.4f}",
        time.perf_counter() - t0, 2700,
    )


def test_criterion_11_x_independence():
    t0 = time.perf_counter()
    x0s = ((0.0, 0.0), (0.25, 0.0), (0.125, 0.0625))
    worst = 0.0
    for seed in (0, 1, 2):
        env = make_environment(MILD_CHECKERBOARD.with_seed(seed))
        vals = np.array([cell_problem_r(env, E2, 32, x0, ACC, 0.25).normalized for x0 in x0s])
        worst = max(worst, (vals.max() - vals.min()) / vals.mean())
    report(
        11, "x-independence", worst <= 0.03,
        f"max per-seed spread across 3 centers = {worst:.4f}", time.perf_counter() - t0, 1200,
    )


def test_criterion_12_monotonicity():
    t0 = time.perf_counter()
    env = make_environment(HOMOGENEOUS)
    c_eta = compute_c_eta(WELL, 0.05)
    eps = 0.125
    seq = []
    for k in (4, 8, 16, 32):
        rho = k * eps
        rec = eps_scaled_cell(env, E2, rho, eps, (0.0, 0.0), ACC, h=eps / 4.0)
        seq.append(rec.m_hat - 1.0 * c_eta * rho)  # c2 = 1 for the homogeneous density
    ok = all(b <= a + 0.02 * abs(a) for a, b in zip(seq, seq[1:]))
    report(
        12, "inner-problem monotonicity", ok,
        "sequence " + ", ".join(f"{s:.3f}" for s in seq), time.perf_counter() - t0, 900,
    )
