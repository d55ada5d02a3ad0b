"""Uniform grids on oriented cubes and cuboids, finite-difference stencils, discrete energies.

Grids are cell-centered in local rotated coordinates (axis -1 along the interface
normal).  Stencils pad by edge replication on clamped axes and wrap on periodic
axes; for profile-type boundary data the clamped ghost values coincide with the
datum, so the lattice edge introduces no error beyond the frame convention itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import DoubleWell, DEFAULT_PROFILE
from .environment import Environment
from .geometry import Direction, LatticeCuboid, OrientedCube, rotation_for

__all__ = [
    "GridField",
    "EnergyParams",
    "ResolutionError",
    "box_grid",
    "cube_grid",
    "slab_grid",
    "cuboid_grid",
    "frame_width_for",
    "profile_field",
    "profile_values",
    "discrete_gradient",
    "discrete_hessian",
    "EnergyModel",
]

U_CAP = 3.0  # solvers clamp node values to [-U_CAP, U_CAP]


class ResolutionError(ValueError):
    """Raised when the mesh cannot resolve the requested transition width."""


# ---------------------------------------------------------------------------
# Grid container
# ---------------------------------------------------------------------------


@dataclass
class GridField:
    """Scalar field on a uniform cell-centered lattice in local rotated coordinates.

    `lo` is the low corner of the local box, `physical_shift` the translation
    applied after rotating local coordinates (the cube center, or zero for
    cuboids).  Frozen nodes are never touched by solvers; periodic axes wrap.
    """

    direction: Direction
    lo: tuple[float, ...]
    h: float
    values: np.ndarray
    frozen: np.ndarray
    periodic: tuple[bool, ...]
    physical_shift: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def axis_coords(self, axis: int) -> np.ndarray:
        m = self.shape[axis]
        return self.lo[axis] + (np.arange(m) + 0.5) * self.h

    def local_points(self) -> np.ndarray:
        grids = np.meshgrid(*(self.axis_coords(a) for a in range(self.n)), indexing="ij")
        return np.stack(grids, axis=-1)

    def physical_points(self) -> np.ndarray:
        rot = rotation_for(self.direction)
        return self.local_points() @ rot.T + np.asarray(self.physical_shift)

    def copy_with(self, values: np.ndarray) -> "GridField":
        if values.shape != self.values.shape:
            raise ValueError("replacement values have the wrong shape")
        return dataclasses.replace(self, values=values)

    def free_mask(self) -> np.ndarray:
        return ~self.frozen


def frame_width_for(h: float, epsilon: float, kind: str = "cell") -> float:
    """Frozen Dirichlet frame width: max(2h, eps) for cell problems, max(2h, eps/2) for slabs."""
    if kind == "cell":
        return max(2.0 * h, epsilon)
    if kind == "slab":
        return max(2.0 * h, 0.5 * epsilon)
    raise ValueError(f"unknown frame kind {kind!r}")


def _node_counts(sides, h: float) -> tuple[int, ...]:
    counts = []
    for side in sides:
        m = int(round(side / h))
        if m < 1 or abs(m * h - side) > 1e-9:
            raise ValueError(f"spacing {h} does not divide side {side}")
        counts.append(m)
    return tuple(counts)


def box_grid(
    direction: Direction,
    lo,
    sides,
    h: float,
    physical_shift=None,
    frame_width: float = 0.0,
    periodic_axes: tuple[bool, ...] | None = None,
) -> GridField:
    """Empty grid over the local box prod [lo_k, lo_k + sides_k); general constructor."""
    lo = tuple(float(v) for v in lo)
    sides = tuple(float(v) for v in sides)
    n = len(sides)
    counts = _node_counts(sides, h)
    periodic = tuple(periodic_axes) if periodic_axes is not None else (False,) * n
    if physical_shift is None:
        physical_shift = (0.0,) * n
    values = np.zeros(counts)
    frozen = np.zeros(counts, dtype=bool)
    if frame_width > 0:
        tol = 1e-9 * h
        for axis in range(n):
            if periodic[axis]:
                continue
            coords = lo[axis] + (np.arange(counts[axis]) + 0.5) * h
            near = (coords - lo[axis] < frame_width - tol) | (lo[axis] + sides[axis] - coords < frame_width - tol)
            shape = [1] * n
            shape[axis] = counts[axis]
            frozen |= near.reshape(shape)
    return GridField(
        direction=direction,
        lo=lo,
        h=h,
        values=values,
        frozen=frozen,
        periodic=periodic,
        physical_shift=tuple(float(v) for v in physical_shift),
    )


def cube_grid(cube: OrientedCube, h: float, frame_width: float, periodic_lateral: bool = False) -> GridField:
    """Grid on an oriented cube with a frozen Dirichlet frame on non-periodic faces."""
    n = cube.n
    periodic = tuple([periodic_lateral] * (n - 1) + [False])
    return box_grid(
        cube.direction,
        lo=(-cube.side / 2.0,) * n,
        sides=(cube.side,) * n,
        h=h,
        physical_shift=cube.center,
        frame_width=frame_width,
        periodic_axes=periodic,
    )


def slab_grid(side: float, h: float, frame_width: float, n: int = 1) -> GridField:
    """Laterally periodic grid on the axis cube with normal e_n, frozen only near the top/bottom faces."""
    cube = OrientedCube((0.0,) * n, side, Direction.from_integers(*([0] * (n - 1) + [1])))
    return cube_grid(cube, h, frame_width, periodic_lateral=True)


def cuboid_grid(cuboid: LatticeCuboid, h: float, frame_width: float) -> GridField:
    bounds = cuboid.local_bounds()
    return box_grid(
        cuboid.direction,
        lo=tuple(b[0] for b in bounds),
        sides=tuple(b[1] - b[0] for b in bounds),
        h=h,
        frame_width=frame_width,
    )


# ---------------------------------------------------------------------------
# Profile data
# ---------------------------------------------------------------------------


def profile_values(grid: GridField, epsilon: float, normal_offset: float = 0.0) -> np.ndarray:
    """eta((t_n + offset)/eps) as node values; constant along lateral axes by construction."""
    t = grid.axis_coords(grid.n - 1) + normal_offset
    column = DEFAULT_PROFILE(t / epsilon)
    shape = [1] * grid.n
    shape[-1] = len(column)
    return np.broadcast_to(column.reshape(shape), grid.shape).copy()


def profile_field(
    cube: OrientedCube,
    nu,
    x0,
    epsilon: float,
    h: float,
    frame_width: float | None = None,
) -> GridField:
    """Regularized-jump field eta(((y - x0) . nu)/eps) sampled on a cube grid.

    When nu is the cube's own axis the values are computed from the local normal
    coordinate (exactly constant along lateral node lines); otherwise they fall
    back to physical dot products.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = nu if isinstance(nu, Direction) else Direction.from_vector(nu)
    if frame_width is None:
        frame_width = frame_width_for(h, epsilon, "cell")
    grid = cube_grid(cube, h, frame_width)
    x0 = np.asarray(x0, dtype=float)
    if d.nu == cube.direction.nu:
        offset = float(np.dot(np.asarray(cube.center) - x0, np.asarray(d.nu)))
        grid.values[...] = profile_values(grid, epsilon, normal_offset=offset)
    else:
        signed = (grid.physical_points() - x0) @ np.asarray(d.nu)
        grid.values[...] = DEFAULT_PROFILE(signed / epsilon)
    return grid


# ---------------------------------------------------------------------------
# Stencils: one padded copy of the field and a table of central differences
# ---------------------------------------------------------------------------

_STEP = {"d1": lambda h: 2.0 * h, "d2": lambda h: h * h, "x": lambda h: 4.0 * h * h}  # denominators


def _stencil_table(n: int) -> tuple:
    """Second-order central differences as (kind, axes, plus taps, minus taps).

    Taps are node offsets; a stencil is the sum of its plus taps minus the sum
    of its minus taps, over _STEP[kind](h): d1 = u[+a] - u[-a] over 2h,
    d2 = u[+a] + u[-a] - u[0] - u[0] over h^2, and the four-corner cross
    x = u[+a+b] + u[-a-b] - u[+a-b] - u[-a+b] over (2h)^2.  `axes` is the
    derivative's index pair.  Every tap is one add or subtract, in D and in D^T.
    """
    e = np.eye(n, dtype=int)
    table = []
    for a in range(n):
        table.append(("d1", (a,), (e[a],), (-e[a],)))
        table.append(("d2", (a, a), (e[a], -e[a]), (0 * e[a], 0 * e[a])))
    for a in range(n):
        for b in range(a + 1, n):
            table.append(("x", (a, b), (e[a] + e[b], -e[a] - e[b]), (e[a] - e[b], e[b] - e[a])))
    return tuple(table)


def _combine(plus, minus) -> np.ndarray:
    d = np.subtract(plus[0], minus[0])
    for v in plus[1:]:
        d += v
    for v in minus[1:]:
        d -= v
    return d


class _Stencils:
    """The stencil table of a batch of same-geometry members, read from one padded copy.

    P (`_pad`) writes u, shaped (members, *shape), into a preallocated array
    with a leading member axis and one ghost layer per grid axis, filled axis by
    axis (corners too) by edge replication, or wrap on periodic axes.  P^T
    (`_fold`) adds the ghost layers of a second such array back onto their
    sources, axes in reverse order.  Stencils run on the arrays flattened per
    member, over the span from a member's first node to its last, so every tap
    is one slice of a (members, padded size) array; span positions in a ghost
    layer get weight 0.  A tap's slice of the padded array feeds D_k and its
    slice of the fold array receives D_k^T, so the adjoints hold by
    construction.  Members never share a span position, so a non-finite member
    cannot leak into another one.  `use` runs the table on the first rows only.
    Buffers are reused: one thread each.
    """

    def __init__(self, members: int, shape: tuple[int, ...], periodic: tuple[bool, ...]):
        n = len(shape)
        self.shape = shape
        self._p = np.zeros((members,) + tuple(m + 2 for m in shape))
        self._q = np.zeros_like(self._p)
        self._inner = (slice(None),) + (slice(1, -1),) * n
        layers = []  # (ghost, source) views of p and of q, in padding order
        for axis, wrap in enumerate(periodic):
            for ghost, source in ((0, -2 if wrap else 1), (-1, 1 if wrap else -2)):
                g, s = [(slice(None),) * (axis + 1) + (slice(i, i + 1 or None),) for i in (ghost, source)]
                layers.append((self._p[g], self._p[s], self._q[g], self._q[s]))
        strides = np.array(self._p.strides[1:]) // self._p.itemsize
        start = int(strides.sum())
        self._span = slice(start, start + int(np.dot(np.array(shape) - 1, strides)) + 1)
        p, q = self._p.reshape(members, -1), self._q.reshape(members, -1)

        def taps(rows, offsets):
            shifts = (int(np.dot(t, strides)) for t in offsets)
            return [rows[:, self._span.start + o : self._span.stop + o] for o in shifts]

        table = [
            (kind, axes, taps(p, plus), taps(p, minus), taps(q, plus), taps(q, minus))
            for kind, axes, plus, minus in _stencil_table(n)
        ]
        self._all = (self._p[self._inner], self._q[self._inner], p, q, layers, table)
        self.use(members)

    def use(self, members: int) -> None:
        """Run on the first `members` rows of the buffers (all of them at construction)."""
        p_inner, q_inner, p, q, layers, table = self._all
        self._p_inner, self._q_inner, self._p_rows, self._q_rows = (v[:members] for v in (p_inner, q_inner, p, q))
        self._layers = [tuple(v[:members] for v in layer) for layer in layers]
        self.table = [
            (kind, axes, *([t[:members] for t in taps] for taps in tap_sets)) for kind, axes, *tap_sets in table
        ]

    def on_span(self, w) -> np.ndarray:
        """Node values per member (or a scalar) laid out on the span, 0 in the ghost layers."""
        padded = np.zeros_like(self._p)
        padded[self._inner] = w
        return padded.reshape(len(padded), -1)[:, self._span].copy()

    def on_nodes(self, d: np.ndarray) -> np.ndarray:
        """The node-shaped view, (members, *shape), of span values."""
        strides = (d.strides[0],) + self._p.strides[1:]
        return np.lib.stride_tricks.as_strided(d, (len(d),) + self.shape, strides, writeable=False)

    def _pad(self, u: np.ndarray) -> None:
        np.copyto(self._p_inner, u)
        for p_ghost, p_source, _, _ in self._layers:
            np.copyto(p_ghost, p_source)

    def _fold(self) -> np.ndarray:
        for _, _, q_ghost, q_source in reversed(self._layers):
            q_source += q_ghost
        return self._q_inner

    def differences(self, u: np.ndarray) -> list:
        """D_k P u on the nodes for every table entry, in table order."""
        self._pad(u)
        return [self.on_nodes(_combine(plus, minus)) for _, _, plus, minus, _, _ in self.table]

    def quadratic(self, u: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
        """(u.Ku, Ku) per member for K = P^T sum_k D_k^T w_k D_k P, span weights w_k.

        u.Ku is read as (P u).(sum_k D_k^T w_k D_k P u) before the fold, one row
        dot per member; Ku is a view into the fold array, valid until the next call.
        """
        self._pad(u)
        self._q_rows.fill(0.0)
        for w, (_, _, plus, minus, q_plus, q_minus) in zip(weights, self.table):
            r = _combine(plus, minus)
            r *= w
            for v in q_plus:
                v += r
            for v in q_minus:
                v -= r
        return _row_dots(self._p_rows, self._q_rows), self._fold()


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[k].y[k] per leading index k, each summed as np.vdot sums it."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def discrete_gradient(field: GridField, node: tuple[int, ...]) -> np.ndarray:
    """Central-difference gradient at one node, in local coordinates."""
    stencils = _Stencils(1, field.shape, field.periodic)
    diffs = stencils.differences(field.values)
    return np.array([d[0][tuple(node)] / _STEP[k](field.h) for (k, *_), d in zip(stencils.table, diffs) if k == "d1"])


def discrete_hessian(field: GridField, node: tuple[int, ...]) -> np.ndarray:
    """Central-difference Hessian at one node, in local coordinates (four-point cross stencil off-diagonal)."""
    stencils = _Stencils(1, field.shape, field.periodic)
    hess = np.empty((field.n, field.n))
    for (kind, axes, *_), d in zip(stencils.table, stencils.differences(field.values)):
        if kind != "d1":
            hess[axes] = hess[axes[::-1]] = d[0][tuple(node)] / _STEP[kind](field.h)
    return hess


# ---------------------------------------------------------------------------
# Discrete energies
# ---------------------------------------------------------------------------

VARIANTS = ("general", "m_plus", "m_minus")


@dataclass(frozen=True)
class EnergyParams:
    """Scale and flavor of the discrete energy: general density or the comparison pair."""

    epsilon: float = 1.0
    variant: str = "general"

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown energy variant {self.variant!r}")


class EnergyModel:
    """Discrete energy and its exact gradient for a batch of same-geometry members.

    A member is one (field, environment) pair.  `field` is one GridField or a
    sequence of them that share shape, spacing, periodic axes and frozen nodes;
    `env` is one Environment for every member or a sequence of one per field.
    Built once per solve: coefficients, weights and stencil views are hoisted
    out of the iteration loop.  The energy is the midpoint-rule node sum
        h^n * sum  a W(u)/eps + b eps |grad u|^2 + c eps^3 |hess u|^2,
    with coefficients sampled at physical points x/eps (the oscillating density),
    and |.| evaluated from local-frame stencils (both norms are frame-invariant).
    In terms of the stencil table D_k, with weights w_k that fold in the
    denominators, h^n eps^k and the factor 2 of the mixed terms,
        E = sum wa W(u) + u.Ku,   grad E = wa W'(u) + 2 Ku,
    where wa = h^n a / eps and K = P^T sum_k D_k^T w_k D_k P.

    Node arrays carry a leading member axis, (members, *shape), and energies
    come back one per member.  A model of one member also takes a bare `shape`
    array and then returns a float energy and a `shape` gradient.
    """

    def __init__(self, field, env, params: EnergyParams):
        fields = [field] if isinstance(field, GridField) else list(field)
        envs = [env] * len(fields) if isinstance(env, Environment) else list(env)
        first = fields[0]
        if len(envs) != len(fields):
            raise ValueError("need one environment per field")
        for f, e in zip(fields[1:], envs[1:]):
            if (f.shape, f.h, f.periodic) != (first.shape, first.h, first.periodic) or not np.array_equal(
                f.frozen, first.frozen
            ):
                raise ValueError("members must share shape, spacing, periodic axes and frozen nodes")
            if e.well != envs[0].well:
                raise ValueError("members must share the double well")
        if first.h > params.epsilon / 4.0 + 1e-12:
            raise ResolutionError(f"h = {first.h} cannot resolve epsilon = {params.epsilon}; need h <= eps/4")
        self.shape = first.shape
        self.h = first.h
        self.n = first.n
        self.eps = params.epsilon
        self.periodic = first.periodic
        self.frozen = first.frozen.copy()
        self.well: DoubleWell = envs[0].well
        self.cell_volume = first.h**first.n
        batch = (len(fields),) + self.shape
        if params.variant == "general":
            coefficients = [
                e.coefficients_at_points((f.physical_points() / params.epsilon).reshape(-1, self.n))
                for f, e in zip(fields, envs)
            ]
            a, b, c = (np.stack(v).reshape(batch) for v in zip(*coefficients))
        else:
            q = np.array([e.spec.q for e in envs]).reshape((len(fields),) + (1,) * self.n)
            a, c = np.ones_like(q), np.ones_like(q)
            b = q if params.variant == "m_plus" else -q
        vol, eps = self.cell_volume, self.eps
        wa = np.broadcast_to(vol * a / eps, batch).copy()
        w = {"d1": vol * eps * b, "d2": vol * eps**3 * c, "x": 2.0 * vol * eps**3 * c}
        self._stencils = _Stencils(len(fields), self.shape, self.periodic)
        w = {kind: self._stencils.on_span(wk / _STEP[kind](self.h) ** 2) for kind, wk in w.items()}
        self._kinds = tuple(w)
        self._rows = [a, b, c, wa, *w.values()]  # every per-member array, one row per member
        self._order = np.arange(len(fields))  # the member each row belongs to
        self._use(len(fields))

    def _use(self, members: int) -> None:
        """Make the first `members` rows the batch: views of them, and of the stencil buffers."""
        self.members = members
        self.a, self.b, self.c, self.wa, *w = (v[:members] for v in self._rows)
        self._stencils.use(members)
        w = dict(zip(self._kinds, w))
        self._weights = [w[kind] for kind, *_ in self._stencils.table]

    @property
    def member_ids(self) -> np.ndarray:
        """The members of the batch, as indices into the fields the model was built from."""
        return self._order[: self.members]

    def select(self, ids) -> None:
        """Make the members `ids` (indices into the fields the model was built from) the batch, in that order.

        Rows are permuted in place, so members left out keep their data and can
        be selected again, and no member's arrays are copied for good.
        """
        ids = np.asarray(ids, dtype=int)
        if np.array_equal(self._order[: len(ids)], ids):
            if len(ids) != self.members:
                self._use(len(ids))
            return
        row = np.empty_like(self._order)
        row[self._order] = np.arange(len(row))
        chosen = row[ids]
        rest = np.ones(len(row), dtype=bool)
        rest[chosen] = False
        perm = np.concatenate([chosen, np.flatnonzero(rest)])
        for v in self._rows:
            v[...] = v[perm]
        self._order = self._order[perm]
        self._use(len(chosen))

    def _batch(self, u: np.ndarray) -> tuple[np.ndarray, bool]:
        """u with its member axis, and whether it came without one."""
        bare = u.ndim == self.n and self.members == 1
        x = u[None] if bare else u
        if x.shape != (self.members,) + self.shape:
            raise ValueError(f"expected node values of shape {(self.members,) + self.shape}, got {u.shape}")
        return x, bare

    def _value(self, u: np.ndarray, quad: np.ndarray) -> np.ndarray:
        return _row_dots(self.wa.reshape(self.members, -1), self.well(u).reshape(self.members, -1)) + quad

    def _gradient(self, u: np.ndarray, ku: np.ndarray) -> np.ndarray:
        g = self.well.derivative(u) * self.wa
        g += 2.0 * ku
        np.copyto(g, 0.0, where=self.frozen)
        return g

    def energy(self, u: np.ndarray):
        x, bare = self._batch(u)
        e = self._value(x, self._stencils.quadratic(x, self._weights)[0])
        return float(e[0]) if bare else e

    def gradient(self, u: np.ndarray) -> np.ndarray:
        x, bare = self._batch(u)
        g = self._gradient(x, self._stencils.quadratic(x, self._weights)[1])
        return g[0] if bare else g

    def value_and_gradient(self, u: np.ndarray):
        """Energy and gradient from one application of K."""
        x, bare = self._batch(u)
        quad, ku = self._stencils.quadratic(x, self._weights)
        e, g = self._value(x, quad), self._gradient(x, ku)
        return (float(e[0]), g[0]) if bare else (e, g)

    def energy_density(self, u: np.ndarray) -> np.ndarray:
        x, bare = self._batch(u)
        dens = self.wa * self.well(x)
        for w, d in zip(self._weights, self._stencils.differences(x)):
            dens += self._stencils.on_nodes(w) * (d * d)
        dens /= self.cell_volume
        return dens[0] if bare else dens

