"""Uniform grids on oriented cubes and cuboids, finite-difference stencils, discrete energies.

Grids are cell-centered in local rotated coordinates (axis -1 along the interface
normal).  Stencils pad by edge replication on clamped axes and wrap on periodic
axes; for profile-type boundary data the clamped ghost values coincide with the
datum, so the lattice edge introduces no error beyond the frame convention itself.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_PROFILE, DEFAULT_WELL
from .environment import Environment
from .geometry import Direction, LatticeCuboid, OrientedCube, rotation_for

__all__ = [
    "GridField",
    "EnergyParams",
    "ResolutionError",
    "box_grid",
    "cube_grid",
    "cuboid_grid",
    "frame_width_for",
    "profile_values",
    "discrete_gradient",
    "discrete_hessian",
    "EnergyModel",
]

U_CAP = 3.0  # solvers clamp node values to [-U_CAP, U_CAP]


class ResolutionError(ValueError):
    """Raised when the mesh cannot resolve the requested transition width, or does not divide a box side."""


# ---------------------------------------------------------------------------
# Grid container
# ---------------------------------------------------------------------------


@dataclass
class GridField:
    """Scalar field on a uniform cell-centered lattice in local rotated coordinates.

    `lo` is the low corner of the local box, `physical_shift` the translation
    applied after rotating local coordinates (the cube center, or zero for
    cuboids).  `frame` is the number of frozen node layers at each end of each
    axis, 0 on periodic axes (which wrap); solvers move only the box inside (`free`).
    """

    direction: Direction
    lo: tuple[float, ...]
    h: float
    values: np.ndarray
    frame: tuple[int, ...]
    periodic: tuple[bool, ...]
    physical_shift: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def free(self) -> tuple[slice, ...]:
        """The box of free nodes as slices of `shape`; empty where the frame fills an axis."""
        return tuple(slice(d, max(d, m - d)) for d, m in zip(self.frame, self.shape))

    @property
    def frozen(self) -> np.ndarray:
        """A read-only mask of the frozen nodes: those outside `free`."""
        mask = np.ones(self.shape, dtype=bool)
        mask[self.free] = False
        mask.flags.writeable = False
        return mask

    def axis_coords(self, axis: int) -> np.ndarray:
        m = self.shape[axis]
        return self.lo[axis] + (np.arange(m) + 0.5) * self.h

    def local_points(self) -> np.ndarray:
        grids = np.meshgrid(*(self.axis_coords(a) for a in range(self.n)), indexing="ij")
        return np.stack(grids, axis=-1)

    def to_physical(self, local: np.ndarray) -> np.ndarray:
        """Physical coordinates of local points (..., n), such as `local_points()`: rotated, then shifted."""
        return local @ rotation_for(self.direction).T + np.asarray(self.physical_shift)

    def copy_with(self, values: np.ndarray) -> "GridField":
        if values.shape != self.values.shape:
            raise ValueError("replacement values have the wrong shape")
        return dataclasses.replace(self, values=values)


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
            raise ResolutionError(f"spacing {h} does not divide side {side}")
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
    """Empty grid over the local box prod [lo_k, lo_k + sides_k), framed `frame_width` deep; general constructor."""
    lo = tuple(float(v) for v in lo)
    sides = tuple(float(v) for v in sides)
    n = len(sides)
    counts = _node_counts(sides, h)
    periodic = tuple(periodic_axes) if periodic_axes is not None else (False,) * n
    if physical_shift is None:
        physical_shift = (0.0,) * n
    frame = []
    for axis, m in enumerate(counts):
        coords = lo[axis] + (np.arange(m) + 0.5) * h
        width = 0.0 if periodic[axis] else frame_width - 1e-9 * h
        low = int(np.count_nonzero(coords - lo[axis] < width))
        high = int(np.count_nonzero(lo[axis] + sides[axis] - coords < width))
        if low != high:
            raise ValueError(f"frame of axis {axis} is {low} nodes deep at its low end and {high} at its high end")
        frame.append(low)
    return GridField(
        direction=direction,
        lo=lo,
        h=h,
        values=np.zeros(counts),
        frame=tuple(frame),
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


def profile_values(grid: GridField, epsilon: float) -> np.ndarray:
    """eta(t_n/eps) as node values; constant along lateral axes by construction."""
    column = DEFAULT_PROFILE(grid.axis_coords(grid.n - 1) / epsilon)
    shape = [1] * grid.n
    shape[-1] = len(column)
    return np.broadcast_to(column.reshape(shape), grid.shape).copy()


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

    P (`_pad`) writes u, shaped (members, *shape), into a preallocated buffer
    that holds one padded block per member, with one ghost layer per grid axis
    filled axis by axis (corners too) by edge replication, or wrap on periodic
    axes.  P^T (`_fold`) adds the ghost layers of a second such buffer back onto
    their sources, axes in reverse order.  The blocks lie end to end, each
    followed by three zero separator rows (layers of the first axis), and the
    stencils run on the flattened buffer over one span, from the first member's
    first node to the last member's last node: every tap is one slice of it.
    Span positions off the nodes (ghost layers, separators) get weight 0.  A
    tap's slice of the padded buffer feeds D_k and its slice of the fold buffer
    receives D_k^T, so the adjoints hold by construction.  A tap reaches less
    than a row and a half along the span, so a value read at one position is
    written less than three rows away: no value read from one member's block,
    finite or not, reaches another member's block.  `take` gives the stencils
    of some of the members.  Buffers are reused: one thread each.

    With `state` (slices of `shape`), u covers only those nodes: `_pad` writes
    them, the other nodes keep what `hold` wrote (a row of `held` per member,
    which `take` copies), and Ku comes back on the state.
    A side marked in `cut`, a (low, high) pair per axis, keeps the ghost layer
    `hold` wrote there too, and its layer is not folded.
    """

    def __init__(self, members: int, shape: tuple[int, ...], periodic: tuple[bool, ...], state=None, cut=None):
        n = len(shape)
        self.shape = shape
        padded = tuple(m + 2 for m in shape)
        self.held = np.zeros((members, padded[0] + 3) + padded[1:])  # three separator rows after each block
        self._q = np.zeros_like(self.held)
        self._blocks = (slice(None), slice(0, padded[0]))  # the padded blocks, without separators
        self._inner = (slice(None),) + tuple(slice(1, m + 1) for m in shape)
        state = state or tuple(slice(0, m) for m in shape)
        self._state = (slice(None),) + tuple(slice(s.start + 1, s.stop + 1) for s in state)
        self._layers = []  # (ghost, source) index tuples, in padding order
        for axis, (m, wrap, sides) in enumerate(zip(shape, periodic, cut or [(False, False)] * n)):
            for held, ghost, source in zip(sides, (0, m + 1), (m if wrap else 1, 1 if wrap else m)):
                if not held:
                    self._layers.append(
                        tuple((slice(None),) * (axis + 1) + (slice(i, i + 1),) for i in (ghost, source))
                    )
        strides = np.array(self.held.strides[1:]) // self.held.itemsize
        self._node_strides = self.held.strides[1:]
        self._block = self.held[0].size
        self._start = int(strides.sum())
        self._length = int(np.dot(np.array(shape) - 1, strides)) + 1  # one member's span
        self._offsets = [
            (kind, axes, *([int(np.dot(t, strides)) for t in taps] for taps in (plus, minus)))
            for kind, axes, plus, minus in _stencil_table(n)
        ]
        self._views()

    def _views(self) -> None:
        """The views of the buffers that every call reads: state, ghost layers, member rows and taps."""
        members = len(self.held)
        p, q = self.held[self._blocks], self._q[self._blocks]
        self._p_state, self._q_state = self.held[self._state], self._q[self._state]
        self._p_rows, self._q_rows = p.reshape(members, -1), q.reshape(members, -1)
        self._ghosts = [(p[g], p[s], q[g], q[s]) for g, s in self._layers]
        length = (members - 1) * self._block + self._length  # the batch's span

        def taps(flat, offsets):
            return [flat[self._start + o : self._start + o + length] for o in offsets]

        p_flat, q_flat = self.held.reshape(-1), self._q.reshape(-1)
        self.table = [
            (kind, axes, taps(p_flat, plus), taps(p_flat, minus), taps(q_flat, plus), taps(q_flat, minus))
            for kind, axes, plus, minus in self._offsets
        ]

    def take(self, members) -> "_Stencils":
        """The stencils of the members at the given indices, in that order, with copies of their held rows."""
        other = copy.copy(self)
        other.held = self.held[members]
        other._q = np.zeros_like(other.held)
        other._views()
        return other

    def on_blocks(self, w) -> np.ndarray:
        """Node values per member (or a scalar) laid out in the members' blocks, 0 off the nodes."""
        blocks = np.zeros_like(self.held)
        blocks[self._inner] = w
        return blocks.reshape(len(blocks), -1)

    def span(self, blocks: np.ndarray) -> np.ndarray:
        """The span of the members whose blocks are given, as one flat view."""
        return blocks.reshape(-1)[self._start : self._start + (len(blocks) - 1) * self._block + self._length]

    def on_nodes(self, d: np.ndarray) -> np.ndarray:
        """The node-shaped view, (members, *shape), of span values."""
        members = (len(d) - self._length) // self._block + 1
        strides = (self._block * d.itemsize,) + self._node_strides
        return np.lib.stride_tricks.as_strided(d, (members,) + self.shape, strides, writeable=False)

    def hold(self, values: np.ndarray, at: tuple) -> None:
        """Write `values` of every member into the slices `at` of the padded blocks, once."""
        self.held[(slice(None),) + at] = values

    def _pad(self, u: np.ndarray) -> None:
        np.copyto(self._p_state, u)
        for p_ghost, p_source, _, _ in self._ghosts:
            np.copyto(p_ghost, p_source)

    def _fold(self) -> np.ndarray:
        for _, _, q_ghost, q_source in reversed(self._ghosts):
            q_source += q_ghost
        return self._q_state

    def differences(self, u: np.ndarray) -> list:
        """D_k P u on the nodes for every table entry, in table order."""
        self._pad(u)
        return [self.on_nodes(_combine(plus, minus)) for _, _, plus, minus, _, _ in self.table]

    def _apply(self, u: np.ndarray, weights) -> None:
        """P u into the padded buffer and sum_k D_k^T w_k D_k P u, before the fold, into the fold buffer."""
        self._pad(u)
        self._q.fill(0.0)
        for w, (_, _, plus, minus, q_plus, q_minus) in zip(weights, self.table):
            r = _combine(plus, minus)
            r *= w
            for v in q_plus:
                v += r
            for v in q_minus:
                v -= r

    def quadratic(self, u: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
        """(u.Ku, Ku) per member for K = P^T sum_k D_k^T w_k D_k P, span weights w_k.

        u.Ku is read as (P u).(sum_k D_k^T w_k D_k P u) over each member's
        padded block before the fold, one row dot per member; Ku is a view into
        the fold buffer, valid until the next call.
        """
        self._apply(u, weights)
        return _row_dots(self._p_rows, self._q_rows), self._fold()

    def magnitudes(self, u: np.ndarray, weights) -> np.ndarray:
        """Per member, the sum of the magnitudes of the terms of the row dot that `quadratic` reads u.Ku from."""
        self._apply(u, weights)
        return _row_dots(np.abs(self._p_rows), np.abs(self._q_rows))


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


def _coefficients(fields, envs, epsilon: float) -> tuple:
    """(a, b, c) at every member's nodes, looked up at the physical points x/eps; each (members, *shape).

    Each environment is looked up once, at every node of its members; node
    coordinates are computed once per distinct low corner.
    """
    local, by_env = {}, {}
    for k, env in enumerate(envs):
        by_env.setdefault(env, []).append(k)
    out = np.empty((3, len(fields), fields[0].values.size))
    for env, members in by_env.items():
        points = []
        for k in members:
            f = fields[k]
            if f.lo not in local:
                local[f.lo] = f.local_points()
            points.append(f.to_physical(local[f.lo]).reshape(-1, f.n))
        points = np.concatenate(points)
        points /= epsilon  # in place, and scattered per coefficient below: no second copy of the batch is held
        for values, into in zip(env.coefficients_at_points(points), out):
            into[members] = values.reshape(len(members), -1)
    return tuple(v.reshape((len(fields),) + fields[0].shape) for v in out)


class EnergyModel:
    """Discrete energy and its exact gradient for a batch of same-geometry members.

    A member is one (field, environment) pair.  `field` is one GridField or a
    sequence of them that share shape, spacing and periodic axes;
    `env` is one Environment for every member or a sequence of one per field.
    Built once per solve: coefficients, weights and stencil views are hoisted
    out of the iteration loop.  The energy is the midpoint-rule node sum
        h^n * sum  a W(u)/eps + b eps |grad u|^2 + c eps^3 |hess u|^2,
    with coefficients sampled at physical points x/eps (the oscillating density),
    and |.| evaluated from local-frame stencils (both norms are frame-invariant).
    In terms of the stencil table D_k, with weights w_k that fold in the
    denominators, h^n eps^k and the factor 2 of the mixed terms,
        E = sum wa W(u) + u.Ku,   grad E = wa W'(u) + 2 Ku,
    where wa = h^n a / eps and K = P^T sum_k D_k^T w_k D_k P.  The energy
    covers every node, and so does its gradient: the model knows no frame.

    Node arrays carry a leading member axis, (members, *shape), and energies
    come back one per member.  A model of one member also takes a bare `shape`
    array and then returns a float energy and a `shape` gradient.  `restrict`
    gives the same energies as a function of a box of the nodes alone, and
    `take` the batch of some of the members; both return a new model.
    """

    def __init__(self, field, env, params: EnergyParams):
        fields = [field] if isinstance(field, GridField) else list(field)
        envs = [env] * len(fields) if isinstance(env, Environment) else list(env)
        first = fields[0]
        if len(envs) != len(fields):
            raise ValueError("need one environment per field")
        for f in fields[1:]:
            if (f.shape, f.h, f.periodic) != (first.shape, first.h, first.periodic):
                raise ValueError("members must share shape, spacing and periodic axes")
        if first.h > params.epsilon / 4.0 + 1e-12:
            raise ResolutionError(f"h = {first.h} cannot resolve epsilon = {params.epsilon}; need h <= eps/4")
        self.shape = first.shape
        self.h = first.h
        self.n = first.n
        self.eps = params.epsilon
        self.periodic = first.periodic
        self.well = DEFAULT_WELL
        self.cell_volume = first.h**first.n
        batch = (len(fields),) + self.shape
        if params.variant == "general":
            a, b, c = _coefficients(fields, envs, params.epsilon)
        else:
            q = np.array([e.spec.q for e in envs]).reshape((len(fields),) + (1,) * self.n)
            a, c = np.ones_like(q), np.ones_like(q)
            b = q if params.variant == "m_plus" else -q
        vol, eps = self.cell_volume, self.eps
        wa = np.broadcast_to(vol * a / eps, batch).copy()
        w = {"d1": vol * eps * b, "d2": vol * eps**3 * c, "x": 2.0 * vol * eps**3 * c}
        stencils = _Stencils(len(fields), self.shape, self.periodic)
        w = {kind: stencils.on_blocks(wk / _STEP[kind](self.h) ** 2) for kind, wk in w.items()}
        self.a, self.b, self.c = a, b, c
        self._hold(stencils, wa, w, np.zeros(len(fields)))

    def _hold(self, stencils: _Stencils, wa: np.ndarray, w: dict, frame: np.ndarray) -> None:
        """Make the batch the members whose rows these are, one row per member each.

        `w` maps each stencil kind to its weights laid out in the stencils'
        blocks, and `frame` is each member's constant energy.
        """
        self._stencils, self.wa, self._w, self._frame = stencils, wa, w, frame
        self.members = len(frame)
        self._weights = [stencils.span(w[kind]) for kind, *_ in stencils.table]

    def restrict(self, values: np.ndarray, box: tuple) -> "EnergyModel":
        """This batch's energy as a function of the nodes in `box` alone, every other node held at `values`.

        `values` is (members, *shape), and `box` is slices of shape.  The
        restricted model's nodes are the box: it takes and returns box-shaped
        arrays, and its wa covers the box; it has no a, b, c.
        The terms that depend on the box are those of the window: every node
        within one of the box, as far as the grid reaches, and the whole of
        every periodic axis.  Its stencils run over the window and read the
        layer next to it too, so every such term is computed as on the whole
        grid and the gradient equals this model's bit for bit.  Each energy
        adds the member's constant E(values) - E_window(values), so energies
        are whole-grid energies to rounding.  A box of the whole grid gives the
        model itself.
        """
        if all(s == slice(0, m) for s, m in zip(box, self.shape)):
            return self
        energy = self.energy(values)
        each = (slice(None),)
        window = tuple(
            slice(0, m) if wrap else slice(max(b.start - 1, 0), min(b.stop + 1, m))
            for b, m, wrap in zip(box, self.shape, self.periodic)
        )
        state = tuple(slice(b.start - w.start, b.stop - w.start) for b, w in zip(box, window))
        cut = [(w.start > 0, w.stop < m) for w, m in zip(window, self.shape)]
        stencils = _Stencils(self.members, tuple(s.stop - s.start for s in window), self.periodic, state, cut)
        # the window and, on its cut sides, the ghost layers: every node the stencils read
        read = tuple(slice(w.start - lo, w.stop + hi) for w, (lo, hi) in zip(window, cut))
        at = tuple(slice(1 - lo, w.stop - w.start + 1 + hi) for w, (lo, hi) in zip(window, cut))
        stencils.hold(values[each + read], at)
        w = {kind: self._stencils.on_nodes(self._stencils.span(wk))[each + window] for kind, wk in self._w.items()}
        w = {kind: stencils.on_blocks(wk) for kind, wk in w.items()}
        model = self._copy(stencils, self.wa[each + box].copy(), w, np.zeros(self.members))
        model.shape = tuple(s.stop - s.start for s in box)
        model._frame[...] = energy - model.energy(values[each + box])
        return model

    def take(self, members) -> "EnergyModel":
        """The batch of the members at the given indices, in that order, as a new model with copies of their rows.

        The model it is taken from is left as it was.  The new model has no a, b, c.
        """
        w = {kind: wk[members] for kind, wk in self._w.items()}
        return self._copy(self._stencils.take(members), self.wa[members], w, self._frame[members])

    def _copy(self, stencils: _Stencils, wa: np.ndarray, w: dict, frame: np.ndarray) -> "EnergyModel":
        """A copy of this model that holds the given rows (`_hold`) and none of the constructor's a, b, c."""
        model = copy.copy(self)
        model.a = model.b = model.c = None  # read only before the descent, from the whole-grid model
        model._hold(stencils, wa, w, frame)
        return model

    def _batch(self, u: np.ndarray) -> tuple[np.ndarray, bool]:
        """u with its member axis, and whether it came without one."""
        bare = u.ndim == self.n and self.members == 1
        x = u[None] if bare else u
        if x.shape != (self.members,) + self.shape:
            raise ValueError(f"expected node values of shape {(self.members,) + self.shape}, got {u.shape}")
        return x, bare

    def _value(self, quad: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Energies from u.Ku and w = W(u)."""
        return _row_dots(self.wa.reshape(self.members, -1), w.reshape(self.members, -1)) + quad + self._frame

    def _gradient(self, ku: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """wa W'(u) + 2 Ku, built in place in dw = W'(u); ku is overwritten."""
        dw *= self.wa
        ku *= 2.0
        dw += ku
        return dw

    def energy(self, u: np.ndarray):
        x, bare = self._batch(u)
        e = self._value(self._stencils.quadratic(x, self._weights)[0], self.well(x))
        return float(e[0]) if bare else e

    def value_and_gradient(self, u: np.ndarray):
        """Energy and gradient from one application of K and one evaluation of u^2 - 1."""
        x, bare = self._batch(u)
        quad, ku = self._stencils.quadratic(x, self._weights)
        w, dw = self.well.value_and_derivative(x)
        e, g = self._value(quad, w), self._gradient(ku, dw)
        return (float(e[0]), g[0]) if bare else (e, g)

    def rounding(self, u: np.ndarray) -> np.ndarray:
        """Per member, a bound on the rounding error of the two dot products that `energy(u)` adds.

        wa.W(u) and u.Ku are read as row dots of at most N terms, N the length
        of a member's padded block; a dot of N terms is off by at most
        gamma_N = N u / (1 - N u) times the sum of its terms' magnitudes, u the
        unit roundoff (Higham, *Accuracy and Stability of Numerical Algorithms*,
        2nd ed., §3.1).  The terms of wa.W(u) are nonnegative; those of u.Ku
        have both signs, and their magnitudes can sum to several times |u.Ku|.
        The few roundings inside each term are left out: on a minus slab
        (tests/test_grids.py) the bound was 600-1700 times the error against
        the energy in exact rational arithmetic.
        """
        x, _ = self._batch(u)
        unit, terms = 2.0**-53, self._stencils.held[0].size
        gamma = terms * unit / (1.0 - terms * unit)
        potential = _row_dots(self.wa.reshape(self.members, -1), self.well(x).reshape(self.members, -1))
        return gamma * (potential + self._stencils.magnitudes(x, self._weights))

    def energy_density(self, u: np.ndarray) -> np.ndarray:
        """The energy per unit volume at each node (of a model that is not restricted)."""
        x, bare = self._batch(u)
        dens = self.wa * self.well(x)
        for w, d in zip(self._weights, self._stencils.differences(x)):
            dens += self._stencils.on_nodes(w) * (d * d)
        dens /= self.cell_volume
        return dens[0] if bare else dens
