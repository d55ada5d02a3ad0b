"""Seeded, lattice-stationary coefficient fields and the density a*W(u) + b|xi|^2 + c|zeta|^2."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "EnvironmentSpec",
    "Environment",
    "growth_violations",
    "make_environment",
    "shift_environment",
]

KINDS = ("homogeneous", "checkerboard", "pinned")

# splitmix64 constants; coefficients are generated by a counter-based hash of
# (seed, cell index) so lookups are order-independent and exactly reproducible.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_AXIS_SALT = (np.uint64(0xA0761D6478BD642F), np.uint64(0xE7037ED1A0B428DB), np.uint64(0x8EBC6AF09C88C6E3))
_INV_2_64 = float(2.0**-64)


_U64 = 2**64 - 1


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z + _GAMMA).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _cell_uniforms(seed: int, cells: np.ndarray) -> np.ndarray:
    """Uniforms in [0,1), shape cells.shape[:-1] + (3,), one per coefficient a, b, c, keyed by (seed, cell)."""
    cells = np.atleast_2d(np.asarray(cells, dtype=np.int64))
    state = _mix(np.array([int(seed) & _U64], dtype=np.uint64))
    h = np.full(cells.shape[:-1], state[0], dtype=np.uint64)
    for axis in range(cells.shape[-1]):
        word = cells[..., axis].view(np.uint64) * _AXIS_SALT[axis % len(_AXIS_SALT)]
        h = _mix(h ^ word)
    out = np.empty(cells.shape[:-1] + (3,), dtype=float)
    for k in range(3):
        out[..., k] = _mix(h + np.uint64(k + 1)).astype(float) * _INV_2_64
    return out


@dataclass(frozen=True)
class EnvironmentSpec:
    """Parameters of a random stationary density: coefficient ranges, bounds, seed."""

    kind: str = "homogeneous"
    a_range: tuple[float, float] = (1.0, 1.0)
    b_range: tuple[float, float] = (0.05, 0.05)
    c_range: tuple[float, float] = (1.0, 1.0)
    q: float = 0.05
    c1: float = 1.0
    c2: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown environment kind {self.kind!r}")
        for name, (lo, hi) in (("a", self.a_range), ("b", self.b_range), ("c", self.c_range)):
            if hi < lo:
                raise ValueError(f"{name}_range is reversed")
        if self.a_range[0] <= 0:
            raise ValueError("a must be bounded below by a positive constant")
        if self.c_range[0] <= 0:
            raise ValueError("c must be bounded below by a positive constant")
        if self.q <= 0:
            raise ValueError("gradient coefficient bound q must be positive")
        if self.b_range[0] < -self.q:
            raise ValueError("b must stay within [-q, inf)")
        if not 0 < self.c1 <= self.c2:
            raise ValueError("need 0 < c1 <= c2")

    def with_seed(self, seed: int) -> "EnvironmentSpec":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class Environment:
    """A realization of the coefficient field, plus the lattice shift applied to lookups."""

    spec: EnvironmentSpec
    offset: tuple[int, ...] = ()

    def coefficients_at_cells(self, cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c) at lattice cells, shape cells.shape[:-1]; deterministic in (seed, cell)."""
        cells = np.atleast_2d(np.asarray(cells, dtype=np.int64))
        if self.offset:
            cells = cells + np.asarray(self.offset, dtype=np.int64)
        spec = self.spec
        shape = cells.shape[:-1]
        if spec.kind == "homogeneous":
            u = np.full(shape + (3,), 0.5)
        elif spec.kind == "pinned":
            # one global triple per seed: hash a fixed cell, broadcast
            u = np.broadcast_to(_cell_uniforms(spec.seed, np.zeros((1, 1), dtype=np.int64) - 7), shape + (3,))
        else:
            u = _cell_uniforms(spec.seed, cells)
        a = spec.a_range[0] + u[..., 0] * (spec.a_range[1] - spec.a_range[0])
        b = spec.b_range[0] + u[..., 1] * (spec.b_range[1] - spec.b_range[0])
        c = spec.c_range[0] + u[..., 2] * (spec.c_range[1] - spec.c_range[0])
        return a, b, c

    def coefficients_at_points(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coefficients of the unit cell containing each physical point."""
        x = np.asarray(x, dtype=float)
        return self.coefficients_at_cells(np.floor(x).astype(np.int64))


def make_environment(spec: EnvironmentSpec) -> Environment:
    return Environment(spec)


def shift_environment(env: Environment, z) -> Environment:
    """Environment whose density at x equals the original density at x + z, exactly."""
    z = np.asarray(z)
    if not np.issubdtype(z.dtype, np.integer):
        if not np.all(z == np.round(z)):
            raise ValueError("only lattice shifts are supported")
        z = np.round(z).astype(np.int64)
    z = tuple(int(v) for v in z.reshape(-1))
    offset = env.offset if env.offset else (0,) * len(z)
    if len(offset) != len(z):
        raise ValueError("shift dimension does not match environment usage")
    return replace(env, offset=tuple(o + v for o, v in zip(offset, z)))


def growth_violations(spec: EnvironmentSpec) -> list[str]:
    """The growth bounds the spec's coefficients break, one message each; [] when all hold.

    W, |xi|^2 and |zeta|^2 are independent and nonnegative, so
    c1(W - q|xi|^2 + |zeta|^2) <= a*W + b|xi|^2 + c|zeta|^2 <= c2(W + q|xi|^2 + |zeta|^2)
    holds at every tuple exactly when c1 <= a <= c2, -c1*q <= b <= c2*q and
    c1 <= c <= c2 hold at every coefficient the spec draws: the closed ranges, or
    for `homogeneous` the midpoints, which is all coefficients_at_cells makes there.
    """
    c1, c2, q = spec.c1, spec.c2, spec.q
    found = []
    for name, (lo, hi), low, low_name, high, high_name in (
        ("a", spec.a_range, c1, "c1", c2, "c2"),
        ("b", spec.b_range, -c1 * q, "-c1*q", c2 * q, "c2*q"),
        ("c", spec.c_range, c1, "c1", c2, "c2"),
    ):
        if spec.kind == "homogeneous":
            lo = hi = lo + 0.5 * (hi - lo)
        if lo < low:
            found.append(f"{name} >= {low_name} fails at {name} = {lo!r} ({low_name} = {low!r})")
        if hi > high:
            found.append(f"{name} <= {high_name} fails at {name} = {hi!r} ({high_name} = {high!r})")
    return found
