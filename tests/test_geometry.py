import numpy as np
import pytest

from homlab.geometry import (
    Direction,
    LatticeCuboid,
    LatticeIncompatibleError,
    integer_rotation,
    m_nu_for,
    rotation_for,
)


def test_direction_requires_unit_vector():
    with pytest.raises(ValueError):
        Direction((0.5, 0.5))


def test_rotation_identity_for_e2(e2):
    assert np.array_equal(rotation_for(e2), np.eye(2))


def test_rotation_maps_en_to_nu():
    for ints in ((3, 4), (1, 2), (-2, 1), (5, -12)):
        d = Direction.from_integers(*ints)
        rot = rotation_for(d)
        assert rot @ np.array([0.0, 1.0]) == pytest.approx(np.array(d.nu), abs=1e-15)
        assert rot.T @ rot == pytest.approx(np.eye(2), abs=1e-15)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-15)


def test_rotation_pythagorean_entries():
    rot = rotation_for(Direction.from_integers(3, 4))
    assert sorted(np.abs(rot).ravel()) == pytest.approx([0.6, 0.6, 0.8, 0.8])


def test_rotation_opposite_direction_same_axis_cube(e2):
    # R_{-nu} maps the axis cube onto the same set as R_nu
    minus = rotation_for(Direction.from_integers(0, -1))
    corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float) / 2
    mapped = {tuple(np.round(minus @ c, 12)) for c in corners}
    assert mapped == {tuple(c) for c in corners}


def test_rotation_1d(e1):
    assert rotation_for(e1) == pytest.approx(np.array([[1.0]]))
    assert rotation_for(Direction.from_integers(-1)) == pytest.approx(np.array([[-1.0]]))


def test_m_nu_values(e1, e2):
    assert m_nu_for(e2) == 3
    assert m_nu_for(e1) == 3
    assert m_nu_for(Direction.from_integers(3, 4)) == 5
    assert m_nu_for(Direction.from_integers(-3, 4)) == 5


def test_m_nu_brute_force_minimality():
    d = Direction.from_integers(3, 4)
    rot = rotation_for(d)
    found = None
    for m in range(3, 10):
        scaled = m * rot
        if np.allclose(scaled, np.round(scaled), atol=1e-12):
            found = m
            break
    assert found == m_nu_for(d)


def test_m_nu_closed_form_matches_the_brute_force_search_on_every_lattice_direction():
    # the least m >= 3 with m R_nu integral, searched over m, for every p with |p_i| <= 30 of integer length
    found = 0
    for p in [(a,) for a in (-3, -1, 1, 2)] + [(a, b) for a in range(-30, 31) for b in range(-30, 31) if a or b]:
        d = Direction.from_integers(*p)
        if not d.rational_flag:
            continue
        rot = rotation_for(d)
        m = next(m for m in range(3, 200) if np.allclose(m * rot, np.round(m * rot), atol=1e-9))
        assert m_nu_for(d) == m, p
        found += 1
    assert found == 4 + 224


def test_rational_flag_needs_an_integer_vector_of_integer_length():
    assert Direction.from_integers(3, 4).rational_flag and Direction.from_integers(0, 2).rational_flag
    assert not Direction.from_integers(1, 1).rational_flag  # |(1, 1)| = sqrt(2)
    assert not Direction.from_angle_degrees(30.0).rational_flag  # no integer vector
    assert Direction.from_integers(-1).rational_flag


def test_m_nu_rejects_irrational():
    with pytest.raises(LatticeIncompatibleError):
        m_nu_for(Direction.from_integers(1, 1))
    with pytest.raises(LatticeIncompatibleError):
        m_nu_for(Direction.from_angle_degrees(30.0))


def test_integer_rotation_exact():
    d = Direction.from_integers(3, 4)
    mat = integer_rotation(d)
    assert mat.dtype == np.int64
    assert np.array_equal(mat, np.array([[4, 3], [-3, 4]]))


def test_angle_roundtrip():
    for theta in (0.0, 22.5, 45.0, 90.0, 157.5):
        assert Direction.from_angle_degrees(theta).angle_degrees() == pytest.approx(theta, abs=1e-9)


def test_cuboid_half_height_and_bounds(e2):
    cub = LatticeCuboid(((0.0, 0.5),), e2)
    assert cub.half_height == 0.5
    cub2 = LatticeCuboid(((0.0, 4.0),), e2)
    assert cub2.half_height == 2.0
    (lat, vert) = cub2.local_bounds()
    assert lat == (0.0, 12.0)
    assert vert == (-6.0, 6.0)


def test_cuboid_requires_rational_direction():
    with pytest.raises(LatticeIncompatibleError):
        LatticeCuboid(((0.0, 1.0),), Direction.from_angle_degrees(10.0))


def test_cuboid_shift_vector_is_integral_and_normal_to_nu(e2):
    for ints in ((0, 1), (3, 4)):
        d = Direction.from_integers(*ints)
        cub = LatticeCuboid(((0.0, 2.0),), d)
        z = cub.lattice_shift_vector((5,))
        assert z.dtype == np.int64
        assert float(z @ np.array(d.nu)) == pytest.approx(0.0, abs=1e-12)
        # shifted cuboid's local box is the translate by m_nu * z' along the lateral axis
        shifted = cub.shifted((5,))
        assert shifted.local_bounds()[0][0] == pytest.approx(cub.local_bounds()[0][0] + 5 * cub.m_nu)


def test_cuboid_contains_transition_slab(e2):
    # every point with |y . nu| <= m/2 inside the lateral extent lies in the cuboid
    cub = LatticeCuboid(((0.0, 2.0),), e2)
    (lat_lo, lat_hi), (v_lo, v_hi) = cub.local_bounds()
    assert v_lo <= -cub.m_nu / 2 and v_hi >= cub.m_nu / 2


def test_frame_invariance_of_derivative_norms():
    # |grad| and |hess|_F computed from local-coordinate stencils match the
    # physical-frame values of a smooth field, to discretization order
    from homlab.grids import box_grid, discrete_gradient, discrete_hessian

    d = Direction.from_integers(3, 4)
    rot = rotation_for(d)

    def f(y):
        return np.sin(y[..., 0] + 2.0 * y[..., 1])

    def grad_f(y):
        c = np.cos(y[..., 0] + 2.0 * y[..., 1])
        return np.stack([c, 2.0 * c], axis=-1)

    def hess_norm_sq(y):
        s = np.sin(y[..., 0] + 2.0 * y[..., 1])
        return (1 + 4 + 4 + 16) * s * s  # entries -sin, -2sin, -2sin, -4sin

    for h in (0.02, 0.01):
        grid = box_grid(d, (-0.5, -0.5), (1.0, 1.0), h)
        pts = grid.to_physical(grid.local_points())
        grid.values[...] = f(pts)
        node = (grid.shape[0] // 2, grid.shape[1] // 2)
        y = pts[node]
        g_loc = discrete_gradient(grid, node)
        assert np.linalg.norm(g_loc) == pytest.approx(np.linalg.norm(grad_f(y)), rel=5e-3)
        hess_loc = discrete_hessian(grid, node)
        assert float(np.sum(hess_loc**2)) == pytest.approx(float(hess_norm_sq(y)), rel=2e-2)
        hess_phys = rot @ hess_loc @ rot.T
        assert float(np.sum(hess_phys**2)) == pytest.approx(float(np.sum(hess_loc**2)), rel=1e-12)
