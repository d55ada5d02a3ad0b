from fractions import Fraction

import numpy as np
import pytest

from homlab.core import compute_c_eta
from homlab.environment import EnvironmentSpec, make_environment, shift_environment
from homlab.geometry import Direction, LatticeCuboid, OrientedCube
from homlab.grids import (
    EnergyModel,
    EnergyParams,
    ResolutionError,
    box_grid,
    cube_grid,
    cuboid_grid,
    discrete_gradient,
    discrete_hessian,
    frame_width_for,
    profile_values,
)
from homlab.cell import _slab_datum
from homlab.harness import MAX_CENTER


def profile_datum(cube, eps, h, frame_width=None):
    """The cell datum as the cell commands build it: the transition profile on a framed cube grid."""
    grid = cube_grid(cube, h, frame_width_for(h, eps, "cell") if frame_width is None else frame_width)
    grid.values[...] = profile_values(grid, eps)
    return grid


def homogeneous_env(q=0.05, b=None):
    b = q if b is None else b
    return make_environment(EnvironmentSpec(q=q, b_range=(b, b)))


CHECKERBOARD = EnvironmentSpec(
    kind="checkerboard", a_range=(0.8, 1.2), b_range=(-0.04, 0.05), c_range=(0.8, 1.2), q=0.05, c1=0.8, c2=1.2,
)


def test_profile_field_hyperplane_and_plateau(e2):
    cube = OrientedCube((0.0, 0.0), 8.0, e2)
    eps = 1.0
    field = profile_datum(cube, eps, h=0.25)
    pts = field.to_physical(field.local_points())
    signed = pts[..., 1]
    on_plateau = np.abs(signed) > eps / 2
    assert np.array_equal(field.values[on_plateau], np.sign(signed[on_plateau]))
    # center column antisymmetry and zero crossing by oddness
    mid = field.values[0, :]
    assert mid[: len(mid) // 2] == pytest.approx(-mid[len(mid) // 2 :][::-1])


def test_profile_field_small_eps_approaches_jump(e2):
    cube = OrientedCube((0.0, 0.0), 8.0, e2)
    field = profile_datum(cube, 0.5, h=0.125)
    pts = field.to_physical(field.local_points())
    off = np.abs(pts[..., 1]) > 0.25
    assert np.array_equal(field.values[off], np.sign(pts[..., 1][off]))


def test_stencils_exact_on_affine_and_quadratic(e2):
    g = box_grid(e2, (-1.0, -1.0), (2.0, 2.0), 0.25)
    pts = g.local_points()
    g.values[...] = 3.0 * pts[..., 0] - 2.0 * pts[..., 1] + 0.7
    node = (4, 4)
    assert discrete_gradient(g, node) == pytest.approx(np.array([3.0, -2.0]), abs=1e-12)
    assert discrete_hessian(g, node) == pytest.approx(np.zeros((2, 2)), abs=1e-10)

    g.values[...] = pts[..., 0] ** 2 + 0.5 * pts[..., 0] * pts[..., 1]
    hess = discrete_hessian(g, node)
    assert hess == pytest.approx(np.array([[2.0, 0.5], [0.5, 0.0]]), abs=1e-10)


def test_hessian_second_order_convergence(e2):
    # compare at the same physical point, where the fourth derivative is O(1)
    errs = []
    for h in (0.04, 0.02):
        g = box_grid(e2, (-1.0, -1.0), (2.0, 2.0), h)
        pts = g.local_points()
        g.values[...] = np.sin(2.0 * pts[..., 0])
        i = int(round((0.78 - g.lo[0]) / h - 0.5))
        node = (i, g.shape[1] // 2)
        x = g.axis_coords(0)[node[0]]
        exact = -4.0 * np.sin(2.0 * x)
        errs.append(abs(discrete_hessian(g, node)[0, 0] - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_energy_zero_at_well(e2):
    cube = OrientedCube((0.0, 0.0), 2.0, e2)
    g = cube_grid(cube, 0.125, frame_width=0.5)
    g.values[...] = 1.0
    env = homogeneous_env()
    assert EnergyModel(g, env, EnergyParams(1.0, "general")).energy(g.values) == 0.0
    assert EnergyModel(g, env, EnergyParams(0.5, "m_plus")).energy(g.values) == 0.0


def test_energy_constant_zero_field_is_volume_over_eps(e2):
    cube = OrientedCube((0.0, 0.0), 2.0, e2)
    g = cube_grid(cube, 0.125, frame_width=0.0)
    env = homogeneous_env()
    for eps in (1.0, 0.5):
        val = EnergyModel(g, env, EnergyParams(eps, "general")).energy(g.values)
        assert val == pytest.approx(2.0**2 / eps, rel=1e-12)


def test_profile_energy_bounded_by_ramp_constant(e1, e2, quartic):
    # transition ramp on an axis cube: comparison energy <= C_eta * cross-section, up to O(h)
    q = 0.05
    c_eta = compute_c_eta(quartic, q)
    env = homogeneous_env(q)
    for d, side, h in ((e1, 4.0, 0.0625), (e2, 4.0, 0.125)):
        cube = OrientedCube((0.0,) * d.n, side, d)
        eps = 0.5
        field = profile_datum(cube, eps, h=h)
        for variant in ("m_plus", "m_minus"):
            val = EnergyModel(field, env, EnergyParams(eps, variant)).energy(field.values)
            cross_section = side ** (d.n - 1)
            assert val <= c_eta * cross_section * (1.0 + 2.0 * h)


def test_gradient_matches_finite_differences(e2):
    rng = np.random.default_rng(7)
    spec = CHECKERBOARD.with_seed(1)
    env = make_environment(spec)
    cube = OrientedCube((0.0, 0.0), 2.0, e2)
    g = cube_grid(cube, 0.125, frame_width=0.25)
    g.values[...] = rng.uniform(-1.5, 1.5, g.shape)
    model = EnergyModel(g, env, EnergyParams(1.0, "general"))
    grad = model.value_and_gradient(g.values)[1]
    # the model's gradient covers every node, the frozen ones too
    for nodes in (np.argwhere(~g.frozen), np.argwhere(g.frozen)):
        assert len(nodes) >= 30
        assert fd_worst(model, g.values, grad, nodes[rng.choice(len(nodes), 30, replace=False)]) < 1e-5


def fd_worst(model, u, grad, nodes):
    """Largest relative gap between grad and central differences of the energy at the given nodes."""
    worst = 0.0
    for node in map(tuple, nodes):
        d = 1e-6 * max(1.0, abs(u[node]))
        up = u.copy()
        up[node] += d
        dn = u.copy()
        dn[node] -= d
        fd = (model.energy(up) - model.energy(dn)) / (2 * d)
        worst = max(worst, abs(fd - grad[node]) / max(abs(grad[node]), 1e-10))
    return worst


def test_plus_minus_gradient_difference_is_gradient_term(e2):
    rng = np.random.default_rng(5)
    q = 0.3
    env = homogeneous_env(q=q)
    cube = OrientedCube((0.0, 0.0), 2.0, e2)
    g = cube_grid(cube, 0.25, frame_width=0.25)
    g.values[...] = rng.uniform(-1, 1, g.shape)
    eps = 1.0
    grad_plus = EnergyModel(g, env, EnergyParams(eps, "m_plus")).value_and_gradient(g.values)[1]
    grad_minus = EnergyModel(g, env, EnergyParams(eps, "m_minus")).value_and_gradient(g.values)[1]
    # difference must be the derivative of 2 q eps int |grad u|^2
    # reference: dense central-difference matrices (edge-replicated ends, or wrap), D^T from numpy
    def d1_matrix(m, periodic):
        d = np.zeros((m, m))
        for i in range(m):
            hi = (i + 1) % m if periodic else min(i + 1, m - 1)
            lo = (i - 1) % m if periodic else max(i - 1, 0)
            d[i, hi] += 1.0 / (2.0 * g.h)
            d[i, lo] -= 1.0 / (2.0 * g.h)
        return d

    vol = g.h**2
    u = g.values.ravel()
    grad_b = np.zeros(u.size)
    for axis in range(2):
        mats = [np.eye(m) for m in g.shape]
        mats[axis] = d1_matrix(g.shape[axis], g.periodic[axis])
        d = np.kron(mats[0], mats[1])
        grad_b += d.T @ (2.0 * vol * eps * q * (d @ u))
    grad_b = grad_b.reshape(g.shape)
    assert grad_plus - grad_minus == pytest.approx(2.0 * grad_b, rel=1e-9, abs=1e-12)


KERNEL_GRIDS = [
    ((False,), 0.5),
    ((True,), 0.0),
    ((False, False), 0.5),
    ((True, False), 0.5),
    ((True, True), 0.0),
]


def kernel_grid(periodic, frame):
    n = len(periodic)
    direction = Direction.from_angle_degrees(30.0) if n == 2 else Direction.from_integers(1)
    return box_grid(direction, (-1.0,) * n, (3.0,) * n, 0.25, frame_width=frame, periodic_axes=periodic)


@pytest.mark.parametrize("variant", ["general", "m_minus"])
@pytest.mark.parametrize("periodic, frame", KERNEL_GRIDS)
def test_kernel_is_symmetric_and_matches_density(periodic, frame, variant):
    rng = np.random.default_rng(17)
    spec = CHECKERBOARD.with_seed(2)
    g = kernel_grid(periodic, frame)
    assert g.frozen.any() == (frame > 0 and not all(periodic)) and not g.frozen.all()
    model = EnergyModel(g, make_environment(spec), EnergyParams(1.0, variant))
    u, v = rng.uniform(-1.5, 1.5, (2,) + g.shape)

    def k(x):
        return model._stencils.quadratic(x, model._weights)[1].copy()

    uku, vku = float(np.sum(u * k(u))), float(np.sum(v * k(u)))
    assert vku == pytest.approx(float(np.sum(u * k(v))), rel=1e-12)
    assert model.energy(u) == pytest.approx(float(np.sum(model.wa * model.well(u))) + uku, rel=1e-14)
    assert model.energy(u) == pytest.approx(g.h**g.n * float(np.sum(model.energy_density(u))), rel=1e-14)
    energy, grad = model.value_and_gradient(u)
    assert energy == model.energy(u)
    assert np.all(grad != 0.0)
    # every frozen node and as many others, against central differences
    nodes = np.concatenate([np.argwhere(g.frozen), np.argwhere(~g.frozen)[: max(int(g.frozen.sum()), 8)]])
    assert fd_worst(model, u, grad, nodes) < 1e-5


def test_growth_sandwich_exact_on_random_fields(e2):
    rng = np.random.default_rng(11)
    spec = CHECKERBOARD.with_seed(6)
    env = make_environment(spec)
    cube = OrientedCube((0.0, 0.0), 2.0, e2)
    for _ in range(100):
        g = cube_grid(cube, 0.25, frame_width=0.0)
        g.values[...] = rng.uniform(-2.5, 2.5, g.shape)
        e = EnergyModel(g, env, EnergyParams(1.0, "general")).energy(g.values)
        lo = spec.c1 * EnergyModel(g, env, EnergyParams(1.0, "m_minus")).energy(g.values)
        hi = spec.c2 * EnergyModel(g, env, EnergyParams(1.0, "m_plus")).energy(g.values)
        slack = 1e-10 * (1.0 + abs(e))
        assert lo - slack <= e <= hi + slack


def test_translation_exactness(e2):
    # energy of the same node values commutes with integer translation of grid and environment
    rng = np.random.default_rng(13)
    spec = EnvironmentSpec(
        kind="checkerboard", a_range=(0.8, 1.2), b_range=(0.0, 0.05), c_range=(0.8, 1.2),
        q=0.05, c1=0.8, c2=1.2, seed=21,
    )
    env = make_environment(spec)
    z = (3, -2)
    vals = rng.uniform(-1.5, 1.5, (16, 16))
    g1 = box_grid(e2, (-2.0, -2.0), (4.0, 4.0), 0.25)
    g1.values[...] = vals
    g2 = box_grid(e2, (-2.0 + z[0], -2.0 + z[1]), (4.0, 4.0), 0.25)
    g2.values[...] = vals
    e1_val = EnergyModel(g1, shift_environment(env, z), EnergyParams(1.0, "general")).energy(g1.values)
    e2_val = EnergyModel(g2, env, EnergyParams(1.0, "general")).energy(g2.values)
    assert e1_val == e2_val


def test_energy_frame_invariant_for_isotropic_density(e2):
    env = homogeneous_env()
    vals = {}
    for d in (e2, Direction.from_integers(3, 4), Direction.from_angle_degrees(30.0)):
        cube = OrientedCube((0.0, 0.0), 8.0, d)
        field = profile_datum(cube, 1.0, h=0.25)
        vals[d.nu] = EnergyModel(field, env, EnergyParams(1.0, "general")).energy(field.values)
    ref = vals[e2.nu]
    for v in vals.values():
        assert v == pytest.approx(ref, rel=1e-12)


def test_resolution_gate(e2):
    cube = OrientedCube((0.0, 0.0), 2.0, e2)
    g = cube_grid(cube, 0.25, frame_width=0.5)
    with pytest.raises(ResolutionError):
        EnergyModel(g, homogeneous_env(), EnergyParams(0.5, "general"))


def test_grid_spacing_must_divide_sides(e2):
    with pytest.raises(ValueError):
        box_grid(e2, (0.0, 0.0), (1.0, 1.0), 0.3)


def test_boundary_mask_codes(e2):
    g = cube_grid(OrientedCube((0.0, 0.0), 1.0, e2), 0.125, frame_width=0.25, periodic_lateral=True)
    assert g.periodic == (True, False)  # lateral axis wraps
    assert g.frozen[3, 0] and g.frozen[3, -1]  # bottom and top frame
    assert not g.frozen[0, 4] and not g.frozen[-1, 4]  # lateral wrap edge stays free
    assert not g.frozen[3, 4]


def distance_test_mask(grid, sides, frame_width):
    """The reference mask: every node nearer than frame_width to a face of a non-periodic axis."""
    frozen = np.zeros(grid.shape, dtype=bool)
    tol = 1e-9 * grid.h
    for axis, (lo, side, m) in enumerate(zip(grid.lo, sides, grid.shape)):
        if grid.periodic[axis] or frame_width <= 0:
            continue
        coords = lo + (np.arange(m) + 0.5) * grid.h
        near = (coords - lo < frame_width - tol) | (lo + side - coords < frame_width - tol)
        shape = [1] * grid.n
        shape[axis] = m
        frozen |= near.reshape(shape)
    return frozen


def built_grids():
    """(grid, sides, frame width) of every grid the commands build, and of the frames the tests use."""
    cell_width = frame_width_for(0.25, 1.0, "cell")
    for r in (4, 8, 16, 32):
        for wrapped in (False, True):
            cube = OrientedCube((0.0, 0.0), float(r), Direction.from_angle_degrees(45.0))
            yield cube_grid(cube, 0.25, cell_width, periodic_lateral=wrapped), (float(r),) * 2, cell_width
    # the property suite's lattice cuboids, their parts and shifts
    for direction in (Direction.from_integers(1, 0), Direction.from_integers(3, 4), Direction.from_integers(0, 1)):
        for base in ((0.0, 2.0), (0.5, 1.5), (0.0, 3.0), (0.0, 1.5), (1.5, 3.0)):
            for cub in (LatticeCuboid((base,), direction), LatticeCuboid((base,), direction).shifted((-2,))):
                sides = tuple(hi - lo for lo, hi in cub.local_bounds())
                yield cuboid_grid(cub, 0.25, cell_width), sides, cell_width
    for eps in (1.0, 0.5, 0.25, 0.125, 0.0625):  # the sigma slabs, h = eps/8
        width = frame_width_for(eps / 8.0, eps, "slab")
        yield _slab_datum(eps, eps / 8.0), (1.0,), width
    for sides in ((1.0,), (1.0, 1.0)):  # the positivity boxes
        direction = Direction.from_integers(*([0] * (len(sides) - 1) + [1]))
        yield box_grid(direction, (0.0,) * len(sides), sides, 1.0 / 16.0), sides, 0.0
    e2 = Direction.from_angle_degrees(30.0)
    # the tests' frames, and eps-scaled cells of side 1 at eps = 1/8 and 1/16
    tests = ((2.0, 0.125, 0.25), (2.0, 0.25, 0.5), (2.0, 0.25, 0.25), (4.0, 0.125, 0.5), (8.0, 0.1, 1.0),
             (1.0, 1.0 / 32.0, 0.125), (1.0, 1.0 / 64.0, 0.0625))
    for side, h, width in tests:
        yield cube_grid(OrientedCube((0.0, 0.0), side, e2), h, width), (side, side), width


def test_frame_gives_the_distance_test_mask():
    seen = set()
    for grid, sides, width in built_grids():
        reference = distance_test_mask(grid, sides, width)
        assert np.array_equal(grid.frozen, reference), (grid.shape, grid.frame, width)
        assert not reference[grid.free].any() and reference.sum() == reference.size - grid.values[grid.free].size
        seen.add((grid.frozen.all(), grid.frozen.any()))
    assert seen == {(True, True), (False, True), (False, False)}  # filled frames, frames and none
    with pytest.raises(ValueError, match="read-only"):
        grid.frozen[...] = False


def test_periodic_axis_wraps_stencil(e2):
    g = box_grid(e2, (0.0, 0.0), (1.0, 1.0), 0.25, periodic_axes=(True, False))
    col = np.array([1.0, 2.0, 3.0, 4.0])
    g.values[...] = col[:, None]
    node = (0, 2)
    grad = discrete_gradient(g, node)
    # lateral neighbor below wraps to the last row
    assert grad[0] == pytest.approx((2.0 - 4.0) / (2 * 0.25))


@pytest.mark.parametrize("periodic", [(False, False), (True, False)])
def test_a_non_finite_member_leaves_its_neighbours_bits_alone(periodic):
    # members' blocks lie end to end in one flat span; the separator rows between them must stop a NaN
    rng = np.random.default_rng(23)
    fields, envs = [], []
    for seed, degrees in ((1, 0.0), (2, 30.0), (3, 75.0)):
        cube = OrientedCube((0.0, 0.0), 2.0, Direction.from_angle_degrees(degrees))
        g = cube_grid(cube, 0.25, frame_width=0.5, periodic_lateral=periodic[0])
        g.values[...] = rng.uniform(-1.5, 1.5, g.shape)
        fields.append(g)
        envs.append(make_environment(CHECKERBOARD.with_seed(seed)))
    params = EnergyParams(1.0, "general")
    u = np.stack([g.values for g in fields])
    u[1, 0, :] = u[1, -1, :] = u[1, :, 0] = u[1, :, -1] = np.nan  # the middle member's edges
    energy, grad = EnergyModel(fields, envs, params).value_and_gradient(u)
    assert not np.isfinite(energy[1])
    for k in (0, 2):
        alone_energy, alone_grad = EnergyModel(fields[k], envs[k], params).value_and_gradient(u[k])
        assert energy[k] == alone_energy
        assert np.array_equal(grad[k], alone_grad)


def shared_cubes():
    """Three directions at three centers in two seeds; two members share one environment object."""
    shared = make_environment(CHECKERBOARD.with_seed(4))
    cubes = [
        (shared, 0.0, (0.0, 0.0)),
        (shared, 45.0, (1.3, -0.7)),
        (make_environment(CHECKERBOARD.with_seed(5)), 45.0, (0.0, 0.0)),
        (make_environment(CHECKERBOARD.with_seed(4)), 120.0, (-2.25, 3.5)),
    ]
    fields = [
        cube_grid(OrientedCube(center, 4.0, Direction.from_angle_degrees(deg)), 0.125, 0.5) for _, deg, center in cubes
    ]
    return fields, [env for env, _, _ in cubes], 0.5


def mixed_cubes():
    """Four directions at two centers, each in one environment and in a lattice shift of it."""
    env = make_environment(CHECKERBOARD.with_seed(8))
    fields, envs = [], []
    for member_env in (env, shift_environment(env, (3, -2))):
        for deg in (0.0, 30.0, 90.0, 135.0):
            for center in ((0.0, 0.0), (2.5, -1.25)):
                fields.append(cube_grid(OrientedCube(center, 4.0, Direction.from_angle_degrees(deg)), 0.125, 0.5))
                envs.append(member_env)
    return fields, envs, 0.5


def cuboids_apart():
    """Two equal-shape cuboids with different low corners, in one environment."""
    e2 = Direction.from_integers(0, 1)
    fields = [cuboid_grid(LatticeCuboid((base,), e2), 0.25, 1.0) for base in ((0.0, 2.0), (-3.0, -1.0))]
    assert fields[0].lo != fields[1].lo and fields[0].shape == fields[1].shape
    return fields, [make_environment(CHECKERBOARD.with_seed(6))] * 2, 1.0


def max_center_edge():
    """Two directions of the cell centered at the largest center a config admits."""
    center = (MAX_CENTER, -MAX_CENTER)
    fields = [
        profile_datum(OrientedCube(center, 8.0, Direction.from_angle_degrees(deg)), 1.0, 0.25) for deg in (0.0, 30.0)
    ]
    return fields, [make_environment(CHECKERBOARD.with_seed(3))] * 2, 1.0


@pytest.mark.parametrize(
    "batch", [shared_cubes, mixed_cubes, cuboids_apart, max_center_edge],
    ids=["shared-cubes", "mixed-cubes", "cuboids-apart", "max-center-edge"],
)
def test_batch_coefficients_equal_each_members_own_lookup(batch):
    fields, envs, eps = batch()
    model = EnergyModel(fields, envs, EnergyParams(eps, "general"))
    for k, (f, env) in enumerate(zip(fields, envs)):
        own = env.coefficients_at_points(f.to_physical(f.local_points()) / eps)
        for batched, alone in zip((model.a, model.b, model.c), own):
            assert np.isfinite(batched[k]).all()
            assert np.array_equal(batched[k], alone)


def test_members_that_share_placements_across_environments_get_their_own_lookup():
    # the cells_r8_2w layout: seeds 1 and 2 hold the same directions and centers; seed 3 holds as
    # many members at other centers
    fields, envs = [], []
    shared, other = ((0.0, 0.0), (2.0, 0.0)), ((0.5, 0.25), (-3.0, 1.0))
    for seed, centers in ((1, shared), (2, shared), (3, other)):
        for deg in (0.0, 45.0, 90.0, 135.0):
            for center in centers:
                fields.append(profile_datum(OrientedCube(center, 8.0, Direction.from_angle_degrees(deg)), 1.0, 0.25))
                envs.append(make_environment(CHECKERBOARD.with_seed(seed)))
    params = EnergyParams(1.0, "general")
    model = EnergyModel(fields, envs, params)
    for k, (f, env) in enumerate(zip(fields, envs)):
        alone = EnergyModel(f, env, params)
        for batch, own in zip((model.a, model.b, model.c), (alone.a, alone.b, alone.c)):
            assert np.array_equal(batch[k], own[0])


@pytest.mark.parametrize("restricted", [False, True], ids=["framed-grid", "frozen-free-box"])
def test_value_and_gradient_are_the_separate_calls_bit_for_bit(restricted):
    # one evaluation of u^2 - 1 serves W and W', on the whole grid and on its free box
    rng = np.random.default_rng(5)
    grid = profile_datum(OrientedCube((0.0, 0.0), 4.0, Direction.from_angle_degrees(30.0)), 1.0, 0.25)
    grid.values[~grid.frozen] += rng.uniform(-0.5, 0.5, int((~grid.frozen).sum()))
    env = make_environment(EnvironmentSpec(kind="checkerboard", b_range=(-0.04, 0.05), seed=2))
    model = EnergyModel([grid, grid], [env, env], EnergyParams(1.0, "general"))
    u = np.stack([grid.values, -grid.values])
    if restricted:
        model, u = model.restrict(u, grid.free), u[(slice(None),) + grid.free].copy()
    assert np.array_equal(model.value_and_gradient(u)[0], model.energy(u))


@pytest.mark.parametrize("noise", [0.0, 1e-3])
def test_rounding_bounds_the_error_of_a_slab_energy(noise):
    # the minus slab of the q that deadlocked the record stop test; h and eps are powers of two, so every
    # weight is exact, and the energy in exact rational arithmetic is the reference
    q, eps, h = 1.2000000000000002, 1.0 / 16.0, 1.0 / 128.0
    grid = _slab_datum(eps, h)
    grid.values[...] = profile_values(grid, eps) + np.random.default_rng(0).uniform(-noise, noise, grid.shape)
    model = EnergyModel(grid, make_environment(EnvironmentSpec(q=q)), EnergyParams(eps, "m_minus"))
    energy, (bound,) = model.energy(grid.values), model.rounding(grid.values)
    u = [Fraction(v) for v in grid.values]
    u = [u[0]] + u + [u[-1]]  # edge-replicated ghost nodes
    H, E, B = Fraction(h), Fraction(eps), -Fraction(q)
    exact = sum(
        H / E * (u[i] ** 2 - 1) ** 2
        + H * E * B * ((u[i + 1] - u[i - 1]) / (2 * H)) ** 2
        + H * E**3 * ((u[i + 1] + u[i - 1] - 2 * u[i]) / H**2) ** 2
        for i in range(1, len(u) - 1)
    )
    # the two dot products within the bound, their final additions within a few epsilons of |energy|
    assert abs(Fraction(energy) - exact) <= Fraction(bound) + Fraction(4 * np.finfo(float).eps * abs(energy))
    assert 0.0 < bound <= 1e-11 * abs(energy)
