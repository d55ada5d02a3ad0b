"""Oriented cubes, rotations taking e_n to a given normal, and lattice-compatible cuboids."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Direction",
    "OrientedCube",
    "LatticeCuboid",
    "LatticeIncompatibleError",
    "rotation_for",
    "integer_rotation",
    "m_nu_for",
]


class LatticeIncompatibleError(ValueError):
    """Raised for directions whose rotation matrix has irrational entries."""


@dataclass(frozen=True)
class Direction:
    """Unit interface normal, optionally tagged with the integer vector it scales.

    `integer_vector` is set only when the direction was built from integers; it
    is what makes lattice-compatibility checks exact.
    """

    nu: tuple[float, ...]
    integer_vector: tuple[int, ...] | None = None

    def __post_init__(self):
        norm = math.sqrt(sum(x * x for x in self.nu))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"direction must be a unit vector, got |nu| = {norm}")
        if self.integer_vector is not None and len(self.integer_vector) != len(self.nu):
            raise ValueError("integer tag and direction have different dimensions")

    @property
    def n(self) -> int:
        return len(self.nu)

    @property
    def rational_flag(self) -> bool:
        return self.integer_vector is not None

    @staticmethod
    def from_integers(*p: int) -> "Direction":
        if all(v == 0 for v in p):
            raise ValueError("zero vector has no direction")
        g = math.gcd(*(abs(v) for v in p))
        p = tuple(v // g for v in p)
        norm = math.sqrt(sum(v * v for v in p))
        return Direction(tuple(v / norm for v in p), integer_vector=p)

    @staticmethod
    def from_angle_degrees(theta: float) -> "Direction":
        """n=2 normal at angle theta from e2 (theta=0 -> e2, theta=90 -> e1)."""
        if theta % 90.0 == 0.0:
            k = int(round(theta / 90.0)) % 4
            return Direction.from_integers(*[(0, 1), (1, 0), (0, -1), (-1, 0)][k])
        t = math.radians(theta)
        return Direction((math.sin(t), math.cos(t)))

    @staticmethod
    def from_vector(v) -> "Direction":
        v = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("zero vector has no direction")
        return Direction(tuple(v / norm))

    def angle_degrees(self) -> float:
        if self.n == 1:
            return 0.0 if self.nu[0] > 0 else 180.0
        return math.degrees(math.atan2(self.nu[0], self.nu[1])) % 360.0


def _as_direction(nu) -> Direction:
    if isinstance(nu, Direction):
        return nu
    return Direction(tuple(float(x) for x in np.atleast_1d(nu)))


def rotation_for(nu) -> np.ndarray:
    """Orthogonal matrix with last column equal to nu.

    n=1 gives the 1x1 matrix [nu]; n=2 gives the proper rotation taking e2 to
    nu, i.e. [[nu_2, nu_1], [-nu_1, nu_2]].  Rational directions yield rational
    entries.
    """
    d = _as_direction(nu)
    if d.n == 1:
        return np.array([[d.nu[0]]])
    if d.n == 2:
        n1, n2 = d.nu
        return np.array([[n2, n1], [-n1, n2]])
    raise NotImplementedError("only dimensions 1 and 2 are supported")


def _integer_data(d: Direction) -> tuple[tuple[int, ...], int]:
    """(reduced integer vector, integer norm); raises if the norm is irrational."""
    if d.integer_vector is None:
        raise LatticeIncompatibleError("direction carries no integer vector")
    p = d.integer_vector
    norm_sq = sum(v * v for v in p)
    m = math.isqrt(norm_sq)
    if m * m != norm_sq:
        raise LatticeIncompatibleError(f"|{p}| = sqrt({norm_sq}) is irrational; rotation is not rational")
    return p, m


@lru_cache(maxsize=None)
def _m_nu_cached(p: tuple[int, ...]) -> int:
    d = Direction.from_integers(*p)
    p, m = _integer_data(d)
    for cand in range(3, 3 * m + 4):
        if all(cand * v % m == 0 for v in p):
            return cand
    raise LatticeIncompatibleError(f"no integer scale found for {p}")  # pragma: no cover


def m_nu_for(nu) -> int:
    """Smallest integer >= 3 such that the scaled rotation matrix is integral."""
    d = _as_direction(nu)
    p, _ = _integer_data(d)
    return _m_nu_cached(p)


def integer_rotation(nu) -> np.ndarray:
    """Exact integer matrix m_nu * R_nu for a lattice-compatible direction."""
    d = _as_direction(nu)
    p, m = _integer_data(d)
    scale = m_nu_for(d)
    if d.n == 1:
        return np.array([[scale * p[0] // m]], dtype=np.int64)
    p1, p2 = p
    rows = [[scale * p2 // m, scale * p1 // m], [-(scale * p1) // m, scale * p2 // m]]
    return np.array(rows, dtype=np.int64)


@dataclass(frozen=True)
class OrientedCube:
    """Cube of side `side` centered at `center`, last local axis along `direction`."""

    center: tuple[float, ...]
    side: float
    direction: Direction

    def __post_init__(self):
        if self.side <= 0:
            raise ValueError("cube side must be positive")
        if len(self.center) != self.direction.n:
            raise ValueError("center and direction dimensions differ")

    @property
    def n(self) -> int:
        return self.direction.n


@dataclass(frozen=True)
class LatticeCuboid:
    """Rotated slab M * R_nu * (base x [-c, c)) used by the subadditive set process.

    `base` is a product of half-open intervals in the lateral (n-1) coordinates;
    the half-height c = max(1/2, max_j len_j / 2) guarantees the transition layer
    of the boundary datum fits inside.  Requires a lattice-compatible direction.
    """

    base: tuple[tuple[float, float], ...]
    direction: Direction

    def __post_init__(self):
        if self.direction.n != len(self.base) + 1:
            raise ValueError("base must have dimension n-1")
        for a, b in self.base:
            if not b > a:
                raise ValueError("base intervals must have positive length")
        m_nu_for(self.direction)  # raises for lattice-incompatible directions

    @property
    def n(self) -> int:
        return self.direction.n

    @property
    def m_nu(self) -> int:
        return m_nu_for(self.direction)

    @property
    def half_height(self) -> float:
        return max(0.5, max((b - a) / 2.0 for a, b in self.base))

    @property
    def base_lengths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in self.base)

    @property
    def base_area(self) -> float:
        return float(np.prod(self.base_lengths))

    def local_bounds(self) -> tuple[tuple[float, float], ...]:
        """Half-open local box (already scaled by m_nu): lateral M*[a,b), normal M*[-c,c)."""
        m = float(self.m_nu)
        c = self.half_height
        return tuple((m * a, m * b) for a, b in self.base) + ((-m * c, m * c),)

    def shifted(self, z: tuple[int, ...]) -> "LatticeCuboid":
        """Cuboid over the lattice-translated base R + z."""
        if len(z) != len(self.base):
            raise ValueError("shift must live in the base lattice")
        return LatticeCuboid(
            tuple((a + zi, b + zi) for (a, b), zi in zip(self.base, z)),
            self.direction,
        )

    def lattice_shift_vector(self, z: tuple[int, ...]) -> np.ndarray:
        """Integer physical translation M * R_nu * (z, 0) matching `shifted(z)`."""
        if len(z) != len(self.base):
            raise ValueError("shift must live in the base lattice")
        mat = integer_rotation(self.direction)
        return mat @ np.array(tuple(z) + (0,), dtype=np.int64)
