import math
from dataclasses import replace

import numpy as np
import pytest

from homlab.environment import (
    EnvironmentSpec,
    growth_violations,
    make_environment,
    shift_environment,
)


def checkerboard_spec(seed=0, **kw):
    base = dict(
        kind="checkerboard",
        a_range=(0.8, 1.2),
        b_range=(-0.04, 0.05),
        c_range=(0.8, 1.2),
        q=0.05,
        c1=0.8,
        c2=1.2,
        seed=seed,
    )
    base.update(kw)
    return EnvironmentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        EnvironmentSpec(a_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        EnvironmentSpec(b_range=(-1.0, 0.0), q=0.05)
    with pytest.raises(ValueError):
        EnvironmentSpec(c1=2.0, c2=1.0)
    with pytest.raises(ValueError):
        EnvironmentSpec(kind="mystery")


def test_checkerboard_deterministic_and_cellwise():
    env = make_environment(checkerboard_spec(seed=9))
    a1, b1, c1 = env.coefficients_at_points(np.array([[0.2, 0.7], [1.9, 0.1]]))
    a2, b2, c2 = env.coefficients_at_points(np.array([[0.6, 0.3], [1.2, 0.8]]))
    assert a1[0] == a2[0] and b1[0] == b2[0] and c1[0] == c2[0]
    assert a1[1] == a2[1]
    # different cell, different draw
    assert a1[0] != a1[1]


def test_coefficients_respect_ranges():
    env = make_environment(checkerboard_spec(seed=4))
    cells = np.stack(np.meshgrid(np.arange(-20, 20), np.arange(-20, 20), indexing="ij"), axis=-1).reshape(-1, 2)
    a, b, c = env.coefficients_at_cells(cells)
    assert a.min() >= 0.8 and a.max() <= 1.2
    assert b.min() >= -0.04 and b.max() <= 0.05
    assert c.min() >= 0.8 and c.max() <= 1.2


def test_query_order_independence():
    env = make_environment(checkerboard_spec(seed=31))
    cells = np.array([[5, -3], [0, 0], [-7, 11]])
    fwd = env.coefficients_at_cells(cells)
    rev = env.coefficients_at_cells(cells[::-1])
    for f, r in zip(fwd, rev):
        assert np.array_equal(f, r[::-1])


def test_stationarity_in_law():
    # empirical mean of a over 10^4 cells within 3 standard errors of the midpoint
    for seed in (0, 1, 12345):
        env = make_environment(checkerboard_spec(seed=seed))
        n = 100
        cells = np.stack(np.meshgrid(np.arange(n), np.arange(n), indexing="ij"), axis=-1).reshape(-1, 2)
        a, _, _ = env.coefficients_at_cells(cells)
        half_width = (1.2 - 0.8) / 2
        se = half_width / np.sqrt(3.0) / np.sqrt(a.size)
        assert abs(a.mean() - 1.0) < 3 * se


def test_shift_identity_and_group():
    env = make_environment(checkerboard_spec(seed=2))
    same = shift_environment(env, (0, 0))
    cells = np.array([[1, 2], [3, -4]])
    assert np.array_equal(env.coefficients_at_cells(cells)[0], same.coefficients_at_cells(cells)[0])
    back = shift_environment(shift_environment(env, (5, -7)), (-5, 7))
    assert np.array_equal(env.coefficients_at_cells(cells)[0], back.coefficients_at_cells(cells)[0])


def test_shift_commutes_with_lookup_bit_exactly():
    env = make_environment(checkerboard_spec(seed=8))
    z = np.array([4, -9])
    shifted = shift_environment(env, tuple(z))
    rng = np.random.default_rng(0)
    x = rng.uniform(-50, 50, size=(100, 2))
    for (a1, a2) in zip(shifted.coefficients_at_points(x), env.coefficients_at_points(x + z)):
        assert np.array_equal(a1, a2)


def test_shift_rejects_non_integer():
    env = make_environment(checkerboard_spec())
    with pytest.raises(ValueError):
        shift_environment(env, (0.5, 0.0))


def test_pinned_environment_is_constant_in_space_but_varies_with_seed():
    spec = checkerboard_spec(kind="pinned")
    env = make_environment(spec)
    cells = np.array([[0, 0], [17, -3], [-100, 55]])
    a, b, c = env.coefficients_at_cells(cells)
    assert np.all(a == a[0]) and np.all(b == b[0]) and np.all(c == c[0])
    other = make_environment(spec.with_seed(1))
    assert other.coefficients_at_cells(cells)[0][0] != a[0]


def test_growth_bounds_pass_for_valid_environment():
    assert growth_violations(checkerboard_spec()) == []


def test_growth_bounds_catch_broken_environment():
    # b below -c1*q violates the lower bound at (u = 1, |xi| = 1, zeta = 0)
    spec = EnvironmentSpec(
        kind="homogeneous",
        a_range=(1.0, 1.0),
        b_range=(-0.49, -0.49),
        c_range=(1.0, 1.0),
        q=0.5,
        c1=0.9,
        c2=1.0,
    )
    violations = growth_violations(spec)
    assert len(violations) > 0
    assert violations == ["b >= -c1*q fails at b = -0.49 (-c1*q = -0.45)"]


@pytest.mark.parametrize(
    "change, bound",
    [
        (dict(a_range=(0.7, 1.2)), "a >= c1"),
        (dict(a_range=(0.8, 1.3)), "a <= c2"),
        (dict(b_range=(-0.05, 0.05)), "b >= -c1*q"),
        (dict(b_range=(-0.04, 0.07)), "b <= c2*q"),
        (dict(c_range=(0.7, 1.2)), "c >= c1"),
        (dict(c_range=(0.8, 1.3)), "c <= c2"),
    ],
)
def test_growth_violations_name_exactly_the_broken_bound(change, bound):
    assert [v.split(" fails")[0] for v in growth_violations(checkerboard_spec(**change))] == [bound]


def test_growth_bounds_see_the_coefficients_each_kind_draws():
    # homogeneous draws only the midpoints (u = 0.5); the other kinds draw anywhere in the closed ranges
    wide = dict(a_range=(0.5, 1.5), c1=1.0, c2=1.0)
    assert growth_violations(EnvironmentSpec(kind="homogeneous", **wide)) == []
    for kind in ("checkerboard", "pinned"):
        violations = growth_violations(EnvironmentSpec(kind=kind, **wide))
        assert [v.split(" fails")[0] for v in violations] == ["a >= c1", "a <= c2"]


def test_example_checkerboard_on_its_lower_b_bound_passes():
    # b_lo = -0.04 is -c1*q in decimals; in floats -c1*q = -0.04000000000000001. The bounds are closed and
    # carry no tolerance: one ulp beyond either b bound fails
    spec = checkerboard_spec()
    low, high = -spec.c1 * spec.q, spec.c2 * spec.q
    assert low < spec.b_range[0] == -0.04
    assert growth_violations(spec) == []
    assert growth_violations(replace(spec, b_range=(low, high))) == []
    beyond = replace(spec, b_range=(math.nextafter(low, -1.0), math.nextafter(high, 1.0)))
    assert [v.split(" fails")[0] for v in growth_violations(beyond)] == ["b >= -c1*q", "b <= c2*q"]
