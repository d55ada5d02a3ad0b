"""Scalar building blocks: double-well potential, C2 transition ramp, its line energy constant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DoubleWell",
    "TransitionProfile",
    "compute_c_eta",
    "simpson",
]


def simpson(f, a: float, b: float, step: float) -> float:
    """Composite Simpson rule with interval count derived from `step`."""
    if step <= 0:
        raise ValueError("quadrature step must be positive")
    m = max(2, int(np.ceil((b - a) / step)))
    m += m % 2
    x = np.linspace(a, b, m + 1)
    y = np.asarray(f(x), dtype=float)
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / (3.0 * m) * np.dot(w, y))


@dataclass(frozen=True)
class DoubleWell:
    """Nonnegative quartic potential (s^2-1)^2, vanishing exactly at -1 and +1.

    `c0` is the domination constant (W(s) <= c0*W(t) + c0 whenever |s| <= |t|),
    stored with the default value valid on the clamped solver range [-3, 3].
    """

    c0: float = 9.0

    def __post_init__(self):
        if self.c0 < 1.0:
            raise ValueError("domination constant c0 must be >= 1")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return (s * s - 1.0) ** 2

    def value_and_derivative(self, s):
        """(W(s), W'(s)) from one evaluation of s^2 - 1: W' = 4 s (s^2 - 1), W bit for bit as `__call__` gives it."""
        s = np.asarray(s, dtype=float)
        t = s * s
        t -= 1.0
        dw = 4.0 * s
        dw *= t
        t *= t
        return t, dw

    def curvature(self, s):
        """Second derivative of the potential, 12 s^2 - 4 (8 at the wells)."""
        s = np.asarray(s, dtype=float)
        return 12.0 * s * s - 4.0


@dataclass(frozen=True)
class TransitionProfile:
    """Odd C2 ramp: -1 below t=-1/2, +1 above t=+1/2, quintic polynomial between.

    The interior polynomial (15 s - 10 s^3 + 3 s^5)/8 with s = 2t is the unique
    lowest-degree odd polynomial whose value and first two derivatives match the
    plateaus at t = +-1/2.
    """

    def __call__(self, t):
        s = np.clip(2.0 * np.asarray(t, dtype=float), -1.0, 1.0)
        s2 = s * s
        return s * (15.0 - s2 * (10.0 - 3.0 * s2)) / 8.0

    def derivative(self, t):
        s = np.clip(2.0 * np.asarray(t, dtype=float), -1.0, 1.0)
        w = 1.0 - s * s
        return 3.75 * w * w

    def second_derivative(self, t):
        s = np.clip(2.0 * np.asarray(t, dtype=float), -1.0, 1.0)
        return 30.0 * s * (s * s - 1.0)


DEFAULT_PROFILE = TransitionProfile()
DEFAULT_WELL = DoubleWell()


def compute_c_eta(well: DoubleWell, q: float, step: float = 1e-4) -> float:
    """Line energy of the fixed transition ramp: int W(eta) + q eta'^2 + eta''^2 dt.

    The integrand vanishes outside [-1/2, 1/2], so the quadrature runs only there.
    """
    if q < 0:
        raise ValueError("gradient coefficient q must be >= 0")

    def integrand(t):
        dp = DEFAULT_PROFILE.derivative(t)
        ddp = DEFAULT_PROFILE.second_derivative(t)
        return well(DEFAULT_PROFILE(t)) + q * dp * dp + ddp * ddp

    return simpson(integrand, -0.5, 0.5, step)

