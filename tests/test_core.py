import numpy as np
import pytest

from homlab.core import TransitionProfile, compute_c_eta

from _oracles import profile_energy_reference

eta = TransitionProfile()


def test_potential_zeros_and_values(quartic):
    assert quartic(1.0) == 0.0
    assert quartic(-1.0) == 0.0
    assert quartic(0.0) == 1.0
    assert quartic(2.0) == 9.0


def test_potential_positive_away_from_wells(quartic):
    s = np.linspace(-3, 3, 601)
    w = quartic(s)
    mask = (np.abs(np.abs(s) - 1.0) > 1e-12)
    assert np.all(w[mask] > 0)


def test_potential_quadratic_lower_bound(quartic):
    s = np.linspace(-4, 4, 1001)
    assert np.all(quartic(s) >= (np.abs(s) - 1.0) ** 2 - 1e-12)


def test_potential_domination_constant(quartic):
    # W(s) <= c0 W(t) + c0 whenever |s| <= |t|, sampled on the solver range
    rng = np.random.default_rng(0)
    t = rng.uniform(-3, 3, 2000)
    s = t * rng.uniform(0, 1, 2000)
    assert np.all(quartic(s) <= quartic.c0 * quartic(t) + quartic.c0 + 1e-12)


def test_potential_derivative_matches_finite_difference(quartic):
    assert quartic.value_and_derivative(1.0)[1] == 0.0
    assert quartic.value_and_derivative(0.0)[1] == 0.0
    assert quartic.value_and_derivative(2.0)[1] == 24.0
    d = 1e-5
    for s in (-2.3, -0.4, 0.9, 1.7):
        fd = (quartic(s + d) - quartic(s - d)) / (2 * d)
        assert quartic.value_and_derivative(s)[1] == pytest.approx(fd, rel=1e-8)


def test_potential_value_and_derivative_are_the_separate_calls_bit_for_bit(quartic):
    s = np.random.default_rng(1).uniform(-3.0, 3.0, 1000)
    assert np.array_equal(quartic.value_and_derivative(s)[0], quartic(s))


def test_profile_plateaus_and_oddness():
    assert eta(0.0) == 0.0
    assert eta(0.7) == 1.0
    assert eta(-0.7) == -1.0
    t = np.linspace(-2, 2, 401)
    assert np.allclose(eta(-t), -eta(t), atol=0)


def test_profile_interior_value():
    # (15*0.5 - 10*0.125 + 3*0.03125)/8 evaluated independently
    assert eta(0.25) == pytest.approx(6.34375 / 8.0, abs=1e-15)
    assert eta(0.25) == pytest.approx(0.79296875, abs=1e-15)


def test_profile_c2_matching_at_plateau_edges():
    for delta in (1e-2, 1e-3, 1e-4):
        assert abs(eta(0.5 - delta) - 1.0) <= 10 * delta
        assert abs(eta.derivative(0.5 - delta)) <= 20 * delta
        assert abs(eta.second_derivative(0.5 - delta)) <= 130 * delta
    assert eta(0.5) == 1.0
    assert eta.derivative(0.5) == 0.0
    assert eta.second_derivative(0.5) == 0.0


def test_profile_derivatives_match_finite_differences():
    d = 1e-6
    for t in (-0.4, -0.1, 0.05, 0.31):
        fd1 = (eta(t + d) - eta(t - d)) / (2 * d)
        fd2 = (eta(t + d) - 2 * eta(t) + eta(t - d)) / d**2
        assert eta.derivative(t) == pytest.approx(fd1, rel=1e-7)
        assert eta.second_derivative(t) == pytest.approx(fd2, rel=1e-3, abs=1e-3)


def test_c_eta_matches_independent_quadrature(quartic):
    for q in (0.0, 0.05, 1.0):
        assert compute_c_eta(quartic, q, step=1e-4) == pytest.approx(
            profile_energy_reference(q), abs=1e-6
        )


def test_c_eta_linear_in_q(quartic):
    c0 = compute_c_eta(quartic, 0.0, step=1e-4)
    c1 = compute_c_eta(quartic, 1.0, step=1e-4)
    # the q-coefficient is the exact ramp-slope integral 40/7
    assert c1 - c0 == pytest.approx(40.0 / 7.0, abs=1e-9)


def test_c_eta_quadrature_step_convergence(quartic):
    coarse = compute_c_eta(quartic, 1.0, step=1e-3)
    fine = compute_c_eta(quartic, 1.0, step=1e-4)
    assert abs(coarse - fine) < 1e-6


def test_c_eta_monotone_in_q(quartic):
    vals = [compute_c_eta(quartic, q, step=1e-3) for q in (0.0, 0.1, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
