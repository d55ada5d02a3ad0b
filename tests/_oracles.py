"""Independent oracles for the test suite.

Deliberately different machinery from the package: Gauss-Legendre quadrature
instead of Simpson, node-centered trapezoid + sparse stencil matrices +
L-BFGS-B instead of the cell-centered midpoint grid + two-point descent.
"""

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize as sp_minimize


def gauss_legendre(f, a, b, order=64):
    x, w = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (b - a) * x + 0.5 * (a + b)
    return float(0.5 * (b - a) * np.sum(w * f(t)))


def profile_energy_reference(q, order=64):
    """High-order quadrature of the ramp energy integrand over the transition."""

    def ramp(t):
        s = np.clip(2.0 * t, -1.0, 1.0)
        return s * (15.0 - s * s * (10.0 - 3.0 * s * s)) / 8.0

    def d_ramp(t):
        s = np.clip(2.0 * t, -1.0, 1.0)
        w = 1.0 - s * s
        return 3.75 * w * w

    def dd_ramp(t):
        s = np.clip(2.0 * t, -1.0, 1.0)
        return 30.0 * s * (s * s - 1.0)

    def integrand(t):
        r = ramp(t)
        return (r * r - 1.0) ** 2 + q * d_ramp(t) ** 2 + dd_ramp(t) ** 2

    return gauss_legendre(integrand, -0.5, 0.5, order)


def _line_solve(a, b, c, length, h, frame, u_init=None, maxiter=400_000):
    """One dense solve of min int a W(u) + b u'^2 + c u''^2 with frozen +-1 ends."""
    npts = int(round(length / h)) + 1
    x = np.linspace(-length / 2, length / 2, npts)
    w = np.full(npts, h)
    w[0] = w[-1] = h / 2
    d1 = sp.diags([-0.5 / h, 0.0, 0.5 / h], [-1, 0, 1], shape=(npts, npts), format="lil")
    d1[0, 0], d1[0, 1] = -1 / h, 1 / h
    d1[-1, -2], d1[-1, -1] = -1 / h, 1 / h
    d1 = d1.tocsr()
    d2 = sp.diags([1 / h**2, -2 / h**2, 1 / h**2], [-1, 0, 1], shape=(npts, npts), format="lil")
    d2[0, :3] = [1 / h**2, -2 / h**2, 1 / h**2]
    d2[-1, -3:] = [1 / h**2, -2 / h**2, 1 / h**2]
    d2 = d2.tocsr()
    frozen = (x < x[0] + frame) | (x > x[-1] - frame)
    free = ~frozen
    u0 = np.tanh(x / 1.4) if u_init is None else np.interp(x, u_init[0], u_init[1])
    u0[frozen] = np.sign(x[frozen])
    base = u0.copy()

    def objective(z):
        u = base.copy()
        u[free] = z
        du, ddu = d1 @ u, d2 @ u
        wv = (u * u - 1.0) ** 2
        energy = float(np.sum(w * (a * wv + b * du * du + c * ddu * ddu)))
        grad = a * w * 4 * u * (u * u - 1) + d1.T @ (2 * b * w * du) + d2.T @ (2 * c * w * ddu)
        return energy, grad[free]

    res = sp_minimize(
        objective,
        u0[free],
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": maxiter, "maxfun": 10**7, "ftol": 2.2e-18, "gtol": 1e-14},
    )
    u = base.copy()
    u[free] = res.x
    return res.fun, (x, u)


def line_constant(a=1.0, b=1.0, c=1.0, length=16.0, h=0.01, frame=1.0):
    """Dense 1D minimum with warm-start cascade 4h -> 2h -> h."""
    _, sol = _line_solve(a, b, c, length, 4 * h, frame)
    _, sol = _line_solve(a, b, c, length, 2 * h, frame, u_init=sol)
    val, _ = _line_solve(a, b, c, length, h, frame, u_init=sol)
    return val


def oscillation_energy(q, delta, k):
    """Mean energy density of u = delta*sin(k x) for W - q|u'|^2 + |u''|^2 on a unit box.

    Valid for k a multiple of 2*pi (whole periods): int sin^2 = 1/2, int sin^4 = 3/8.
    """
    return (3.0 / 8.0) * delta**4 + delta**2 * (-1.0 - q * k**2 / 2.0 + k**4 / 2.0) + 1.0


def line_derivative(model, u, v, d=0.25):
    """d/dt E(u + t v) at t = 0 by the five-point rule: exact to rounding, as the energy is a quartic along a line."""
    e = [model.energy(u + j * d * v) for j in (-2, -1, 1, 2)]
    return (e[0] - 8.0 * e[1] + 8.0 * e[2] - e[3]) / (12.0 * d)
