"""Seeded, lattice-stationary coefficient fields and the density a*W(u) + b|xi|^2 + c|zeta|^2."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import DoubleWell

__all__ = [
    "EnvironmentSpec",
    "Environment",
    "GrowthReport",
    "make_environment",
    "shift_environment",
    "verify_growth_bounds",
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


def _mix_int(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def _cell_uniforms(seed: int, cells: np.ndarray) -> np.ndarray:
    """Uniforms in [0,1), shape cells.shape[:-1] + (3,), one per coefficient a, b, c, keyed by (seed, cell)."""
    cells = np.atleast_2d(np.asarray(cells, dtype=np.int64))
    state = _mix_int(int(seed) & _U64)
    h = np.full(cells.shape[:-1], state, dtype=np.uint64)
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
    well: DoubleWell = field(default_factory=DoubleWell)
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


def make_environment(spec: EnvironmentSpec, well: DoubleWell | None = None) -> Environment:
    return Environment(spec, well if well is not None else DoubleWell())


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


@dataclass
class GrowthReport:
    samples: int
    counterexamples: list

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def verify_growth_bounds(env: Environment, samples: int = 1000, n: int = 2, seed: int = 0) -> GrowthReport:
    """Check c1(W - q|xi|^2 + |zeta|^2) <= f <= c2(W + q|xi|^2 + |zeta|^2) on sampled tuples.

    Points x are drawn from the box [-16, 16)^n, and each side may miss by
    1e-12 relative.  Random tuples are augmented with deterministic corner
    probes (u at the wells and far out, xi/zeta zeroed or excited one at a
    time) so range-boundary violations cannot slip past a thin random sample.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    spec = env.spec
    x = rng.uniform(-16.0, 16.0, size=(samples, n))
    u = rng.uniform(-3.0, 3.0, size=samples)
    xi = rng.normal(size=(samples, n))
    zeta = rng.normal(size=(samples, n, n))
    probe_u = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    probes = []
    for pu in probe_u:
        for gx in (0.0, 1.0, 3.0):
            for hz in (0.0, 1.0):
                probes.append((pu, gx, hz))
    px = np.tile(x[:1], (len(probes), 1))
    pu = np.array([p[0] for p in probes])
    pxi = np.zeros((len(probes), n))
    pxi[:, 0] = [p[1] for p in probes]
    pzeta = np.zeros((len(probes), n, n))
    pzeta[:, 0, 0] = [p[2] for p in probes]
    x = np.concatenate([x, px])
    u = np.concatenate([u, pu])
    xi = np.concatenate([xi, pxi])
    zeta = np.concatenate([zeta, pzeta])
    a, b, c = env.coefficients_at_points(x)
    w = env.well(u)
    gsq = np.sum(xi * xi, axis=1)
    hsq = np.sum(zeta * zeta, axis=(1, 2))
    f = a * w + b * gsq + c * hsq
    lower = spec.c1 * (w - spec.q * gsq + hsq)
    upper = spec.c2 * (w + spec.q * gsq + hsq)
    scale = 1.0 + np.abs(f)
    bad = np.where((f - lower < -1e-12 * scale) | (upper - f < -1e-12 * scale))[0]
    ces = [
        {"x": x[i].tolist(), "u": float(u[i]), "f": float(f[i]), "lower": float(lower[i]), "upper": float(upper[i])}
        for i in bad[:20]
    ]
    return GrowthReport(samples=samples, counterexamples=ces)
