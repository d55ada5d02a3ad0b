"""The descent iterates on the box of free nodes: the same gradient, whole-grid energies, frozen nodes untouched."""

import numpy as np
import pytest

from homlab import solve
from homlab.grids import EnergyModel
from homlab.solve import minimize_energy

from test_batch import ACC, profile_cell
from test_solve import _wrapped_cell


def cell(seed, degrees, wrapped):
    """An r = 8 cell, framed on every side or wrapped laterally (framed only along the normal)."""
    return _wrapped_cell(degrees, seed, 8) if wrapped else profile_cell(seed, degrees, (0.25, 0))


@pytest.mark.parametrize("wrapped", [False, True], ids=["framed", "wrapped"])
def test_restricted_model_gives_the_whole_grid_gradient_and_energy(wrapped):
    problems = [cell(1, 45, wrapped), cell(2, 90, wrapped)]
    initials, envs, params = zip(*problems)
    geometry = solve._Geometry(initials[0])
    box = (slice(None),) + geometry.box
    values = np.stack([g.values for g in initials])
    assert values[box].size < values.size  # the frame is cropped
    full = EnergyModel(initials, envs, params[0])
    restricted = full.restrict(values, geometry.box)
    # a field other than the one the frozen nodes were taken from
    u = values.copy()
    u[box] += 0.3 * np.random.default_rng(5).standard_normal(u[box].shape)
    energy, grad = restricted.value_and_gradient(u[box])
    full_energy, full_grad = full.value_and_gradient(u)
    assert np.array_equal(grad, full_grad[box])
    np.testing.assert_allclose(energy, full_energy, rtol=1e-12, atol=0)


@pytest.mark.parametrize("wrapped", [False, True], ids=["framed", "wrapped"])
def test_reported_value_is_the_whole_grid_energy_and_frozen_nodes_stay(wrapped):
    initial, env, params = cell(3, 45, wrapped)
    res = minimize_energy(initial, env, params, ACC)
    assert res.converged
    whole = EnergyModel(res.field, env, params).energy(res.field.values)
    assert res.value == pytest.approx(whole, rel=1e-12, abs=0)
    assert np.array_equal(res.field.values[initial.frozen], initial.values[initial.frozen])
    assert initial.frozen.any()


@pytest.mark.parametrize("wrapped", [False, True], ids=["framed", "wrapped"])
def test_take_gives_the_rows_of_the_whole_batch(wrapped):
    problems = [cell(1, 45, wrapped), cell(2, 90, wrapped), cell(3, 0, wrapped)]
    initials, envs, params = zip(*problems)
    geometry = solve._Geometry(initials[0])
    box = (slice(None),) + geometry.box
    values = np.stack([g.values for g in initials])
    model = EnergyModel(initials, envs, params[0]).restrict(values, geometry.box)
    u = values[box] + 0.3 * np.random.default_rng(7).standard_normal(values[box].shape)
    energy, grad = model.value_and_gradient(u)
    taken = model.take([2, 0])
    assert taken is not model and taken.members == 2
    for other in (taken, model.take([1, 2, 0]).take([1, 2])):
        e, g = other.value_and_gradient(u[[2, 0]])
        assert np.array_equal(e, energy[[2, 0]])
        assert np.array_equal(g, grad[[2, 0]])
    # the model taken from is left as it was
    e, g = model.value_and_gradient(u)
    assert np.array_equal(e, energy) and np.array_equal(g, grad)
