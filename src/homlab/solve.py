"""Nonconvex descent over free nodes: preconditioned two-point or L-BFGS steps, monotone acceptance."""

from __future__ import annotations

import copy
import math
import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import BLAS_THREADS
from .grids import U_CAP, EnergyModel, EnergyParams, GridField

__all__ = ["SolverConfig", "SolveResult", "DivergenceError", "solve_many", "usable_cpus"]


# nodes per lockstep batch: sixteen 32^2 cells, four 64^2 cells, one 128^2 cell.
# One r = 32 cell at h = 0.25 is the largest single solve of the shipped configs,
# so no batch holds more nodes than a cell that is solved alone anyway.
MAX_BATCH_NODES = 16384

# free-box nodes of one member from which the metric runs in float32 (README
# "Precision of the metric").  Time of one two-axis transform, float32 with its
# casts / float64, one BLAS thread, median of 15 interleaved rounds on a 2-vCPU
# VM: 16 x 24^2 1.10, 1 x 56^2 0.92, 4 x 56^2 0.84, 1 x 64^2 0.78, 1 x 104^2
# 0.65, 1 x 120^2 0.62.  Every r <= 16 cell at h = 0.25 (boxes of 24^2, 56^2
# and 64 x 56) keeps float64 and its bits; an r = 32 cell (120^2) switches.
FLOAT32_METRIC_NODES = 64 * 64

# secant pairs of the L-BFGS memory on float32-metric geometries (README "Secant
# pairs").  r = 32 cells of the configs/example.ini checkerboard, seeds 0-39 at
# 0, 45 and 90 degrees, total / maximum iterations, all converged: two-point
# step 11400 / 284; 1 pair 37095 / 1342, 2: 7928 / 136, 3: 7681 / 116, 4: 7160
# / 110, 5: 6613 / 101, 6: 6329 / 98, 8: 5861 / 88.  Share of the two-loop in
# an iteration (1 x 120^2, one BLAS thread, 2-vCPU VM): 11-13% at 5, 12-15% at
# 6, 14-16% at 8.  On 30 of the cells (interleaved rounds) 6 and 8 pairs were
# 4% and 8% faster than 5, 4 and 3 pairs 3% and 11% slower.  5 keeps the
# two-loop below 15% of an iteration with a margin.
SECANT_PAIRS = 5

# machine epsilons of |record| by which a small-gradient state may lie above its
# record and still stop the descent, beside `EnergyModel.rounding`: the final
# additions of an energy (potential, quadratic and frame parts) round at about
# one epsilon each.  On the minus slab at q = 0.05, eps = 1/128, 2985 of the
# first 3000 iterates had max|g| <= grad_tol at 1.0-10.8 epsilons above a
# record whose own max|g| stayed above it: a test at the record stopped none.
ROUNDING_ULPS = 4
EPS = float(np.finfo(float).eps)


class DivergenceError(RuntimeError):
    """Raised when the energy turns non-finite during descent."""


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of solve_many.

    grad_tol = None resolves to 1e-6 * h^n at solve time (gradient entries scale
    with the cell volume).
    """

    max_iters: int = 20_000
    grad_tol: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol is not None and not 0.0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")


@dataclass
class SolveResult:
    field: GridField
    value: float
    iters: int
    final_grad_norm: float
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def _per_member(x: np.ndarray) -> tuple[int, ...]:
    """The axes after the member axis: a reduction over them gives each member the bits it gets alone."""
    return tuple(range(1, x.ndim))


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Per-member sums, shaped (members, 1, ...) to broadcast against node arrays."""
    return np.add.reduce(x, axis=_per_member(x), keepdims=True)


def _row_max_abs(x: np.ndarray) -> np.ndarray:
    return np.maximum.reduce(np.abs(x), axis=_per_member(x))


def _initial_step(model: EnergyModel) -> np.ndarray:
    # crude curvature bound of the quadratic-form terms, per member; refined by the two-point rule
    h, eps, n = model.h, model.eps, model.n
    a_hi, b_hi, c_hi = (np.max(v, axis=_per_member(v)) for v in (model.a, np.abs(model.b), model.c))
    lip = h**n * (104.0 * a_hi / eps + 8.0 * n * b_hi * eps / h**2 + 32.0 * n**2 * c_hi * eps**3 / h**4)
    return 1.0 / lip


# ---------------------------------------------------------------------------
# Descent metric: a fixed SPD model of the energy Hessian
# ---------------------------------------------------------------------------


def _axis_basis(m: int, h: float, ends: str) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenbasis (columns) and eigenvalues of the 1-D [-1, 2, -1]/h^2 Laplacian.

    `ends` names the boundary rows: "fixed-fixed" ends sit next to frozen
    nodes (the rows keep their 2), "free-free" ends are edge-replicated grid
    edges (the rows read [1, -1]), and "wrap" closes the axis periodically.
    Each basis is closed form: sine, cosine or real Fourier.
    """
    j = np.arange(m)[:, None]  # node
    k = np.arange(m)  # mode
    if ends == "wrap":
        freq = (k + 1) // 2  # 0, 1, 1, 2, 2, ...: cosine, then sine, per frequency
        theta = 2.0 * np.pi * freq * j / m
        q = np.where(k % 2 == 1, np.cos(theta), np.sin(theta)) * np.sqrt(2.0 / m)
        q[:, 0] = np.sqrt(1.0 / m)
        if m % 2 == 0:
            q[:, -1] = np.cos(np.pi * j[:, 0]) / np.sqrt(m)
        lam = np.sin(np.pi * freq / m) ** 2
    elif ends == "free-free":
        q = np.cos(np.pi * k * (j + 0.5) / m) * np.sqrt(2.0 / m)
        q[:, 0] = np.sqrt(1.0 / m)
        lam = np.sin(np.pi * k / (2 * m)) ** 2
    elif ends == "fixed-fixed":
        q = np.sin(np.pi * (k + 1) * (j + 1) / (m + 1)) * np.sqrt(2.0 / (m + 1))
        lam = np.sin(np.pi * (k + 1) / (2 * (m + 1))) ** 2
    else:
        raise ValueError(f"unknown boundary pair {ends!r}")
    return q, 4.0 * lam / (h * h)


def _transform(mats, x: np.ndarray) -> np.ndarray:
    """Multiply x by mats[a] along each of its last len(mats) axes (one small matmul per axis).

    Leading axes (the member axis of a batch) are carried along; every member
    gets the bits it would get alone.  The result is C-contiguous: every
    later product and reduction on it would otherwise copy or stride.
    """
    if len(mats) == 1:
        return mats[0] @ x if x.ndim == 1 else (mats[0] @ x[..., None])[..., 0]
    for axis, q in enumerate(mats, start=x.ndim - len(mats)):
        x = q @ x if axis == x.ndim - 2 else (q @ x.swapaxes(axis, -2)).swapaxes(axis, -2)
    return np.ascontiguousarray(x)


# floor of the interface modes' curvature, as a fraction of the model's own (README "Solver note")
SOFT_FLOOR = 0.2


class _Metric:
    """The descent metric M of a batch: directions are d = M^-1 g and steps are measured in s'Ms.

    It acts on the free box (`_Geometry`), where the base model P is diagonal
    in a tensor product of closed-form axis bases, with the symbol
    vol*(2(c eps^3 L^2 + b eps L) + W''(1) a/eps) (L the sum of the per-axis
    Laplacian eigenvalues, a, b, c the whole-grid coefficient means of each
    member): the energy Hessian at u = +-1 for constant coefficients.  The
    bases are shared by the geometry group, the symbol is per member.

    With lateral axes (n >= 2), M corrects P on the interface's soft modes
    (`_Interface`), rebuilt from the current u by every `apply`; `norm2`
    measures in the metric of the last `apply`.

    A member whose symbol is not positive on the spectrum (e.g. the minus
    comparison energy at large q) gets the constant symbol 1/_initial_step
    and no interface correction: M = I/t0, which makes its descent the plain
    two-point gradient method (`_metric`).

    M runs in the dtype of the bases (`_Geometry`): g and s are cast to it
    once and d back to float64 once, and the symbol and the interface terms
    are held in it, so no product of a direction falls back to float64.
    """

    def __init__(self, bases, symbol: np.ndarray, interface):
        self.bases, self.symbol, self.interface = bases, symbol, interface
        self.bases_t = [q.T for q in bases]
        self.dtype = bases[0].dtype
        self._modes = None

    def take(self, members) -> "_Metric":
        """The metric of the members at the given indices."""
        interface = None if self.interface is None else self.interface.take(members)
        return _Metric(self.bases, self.symbol[members], interface)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """x's coordinates in the bases, in the metric's dtype: (members, *box)."""
        return _transform(self.bases_t, x.astype(self.dtype, copy=False))

    def apply(self, g_hat: np.ndarray, u: np.ndarray) -> np.ndarray:
        """M^-1 at u in coordinates: g_hat / symbol plus the interface correction at u."""
        coef = g_hat / self.symbol
        if self.interface is not None:
            self._modes = tuple(x.astype(self.dtype, copy=False) for x in self.interface.modes(u))
            phi, weight, _ = self._modes
            coef += (weight * (g_hat @ phi[..., None])) * phi[..., None, :]
        return coef

    def inverse(self, coef: np.ndarray) -> np.ndarray:
        """The float64 field with these coordinates."""
        return _transform(self.bases, coef).astype(np.float64, copy=False)

    def norm2(self, s: np.ndarray) -> np.ndarray:
        """s'Ms per member, shaped (members, 1, ...), in the metric of the last `apply`."""
        coef = self.forward(s)
        scaled = self.symbol * coef
        out = _row_sums(scaled * coef)
        if self._modes is not None:
            phi, weight, p = self._modes
            proj = scaled @ phi[..., None]
            out -= _row_sums(weight / (1.0 + weight * p) * proj * proj)  # gamma_k in the scale of phi
        return out


class _Interface:
    """The interface's soft modes in the free box, and the metric's correction on them.

    An interface across the box slides along the normal (the last axis) at
    almost no cost, once per lateral wavenumber k: the field changes by phi,
    the unit central difference of the lateral mean u_bar of u over the box.
    P cannot see this, as it models the Hessian at u = +-1.  With phi_hat the
    coordinates of phi in the normal basis, P's curvature along phi_hat in
    lateral mode k is p_k = sum_j symbol[k, j] phi_hat_j^2, closed form in the
    lateral eigenvalue from the moments of the normal eigenvalues mu_j under
    phi_hat^2.  The well term's curvature along phi differs from P's by
    delta = vol a/eps sum_y (W''(u_bar_y) - W''(1)) phi_y^2.  M replaces p_k
    by alpha_k = max(p_k + delta, SOFT_FLOOR p_k):
        M_k = P_k - gamma_k P_k phi_hat phi_hat' P_k,  gamma_k = (p_k - alpha_k) / p_k^2,
        M_k^-1 = P_k^-1 + (1/alpha_k - 1/p_k) phi_hat phi_hat',
    which stays SPD.  A member whose phi is zero or not finite, or whose
    symbol is not positive, gets no correction.  Every reduction is per
    member (stacked matmuls and reductions over the member's own rows), so
    members keep their bits.

    Built once per geometry group; `batch` adds the members' coefficient
    terms.  phi at the box's end rows reads the lateral means of the frozen
    rows next to the box, which are constant per member (`ends`).
    """

    def __init__(self, grid: GridField, box: tuple, q_normal: np.ndarray, mu: np.ndarray, lam_lateral):
        size = grid.shape[-1]
        rows = np.arange(size)[box[-1]]
        if grid.periodic[-1]:
            up, down = (rows + 1) % size, (rows - 1) % size
        else:
            up, down = np.minimum(rows + 1, size - 1), np.maximum(rows - 1, 0)
        read = np.zeros(size, dtype=bool)
        read[up] = read[down] = True
        read[rows] = False
        self.outside = np.flatnonzero(read)  # frozen rows that phi reads
        position = np.empty(size, dtype=int)  # of a row in u_bar followed by the outside rows
        position[np.concatenate([rows, self.outside])] = np.arange(len(rows) + len(self.outside))
        self.up, self.down = position[up], position[down]
        self.lateral_box = box[:-1]
        # `w @ x` averages the last lateral axis of x; the last one first
        self.lateral_means = [np.full(b.stop - b.start, 1.0 / (b.stop - b.start)) for b in box[-2::-1]]
        self.q_normal_t = q_normal.T
        self.mu_powers = np.stack([np.ones_like(mu), mu, mu * mu], axis=1)
        self.lam = lam_lateral
        self.lateral_shape = (-1,) + lam_lateral.shape  # (members, *lateral box, 1)
        self.phi_shape = (-1,) + (1,) * (lam_lateral.ndim - 2) + (len(rows),)

    def batch(self, model: EnergyModel, abc, values: np.ndarray, corrected: np.ndarray) -> "_Interface":
        """The interface of a batch.

        abc are the whole-grid coefficient means, (members, 1, ..., 1), and
        `corrected` masks the members that get the correction.
        """
        other = copy.copy(self)
        other.well = model.well
        other.curvature_at_wells = model.well.curvature(1.0)
        a, b, c = abc
        eps, vol = model.eps, model.cell_volume
        lam = self.lam.reshape(1, 1, -1)
        big_a, big_b = (2.0 * vol * v.reshape(-1, 1, 1) for v in (c * eps**3, b * eps))
        other.well_weight = (vol * a / eps).reshape(-1, 1, 1)
        # the symbol A (lam + mu)^2 + B (lam + mu) + C by powers of mu, so that
        # p_k |phi|^2 = [m0, m1, m2] @ poly[..., k] for the moments m_i = sum_j mu_j^i phi_hat_j^2
        big_c = other.well_weight * other.curvature_at_wells
        terms = ((big_a * lam + big_b) * lam + big_c, 2.0 * big_a * lam + big_b, big_a)
        other.poly = np.concatenate(np.broadcast_arrays(*terms), axis=1)
        other.poly[~corrected] = 0.0  # p = 0, which `modes` leaves uncorrected
        other.ends = self._lateral_mean(values[(slice(None),) + self.lateral_box + (self.outside,)])
        return other

    def take(self, members) -> "_Interface":
        other = copy.copy(self)
        other.poly, other.well_weight, other.ends = self.poly[members], self.well_weight[members], self.ends[members]
        return other

    def _lateral_mean(self, x: np.ndarray) -> np.ndarray:
        for w in self.lateral_means:
            x = w @ x
        return x

    def modes(self, u: np.ndarray) -> tuple:
        """(phi_hat, 1/alpha - 1/p, p) at u, shaped to broadcast against coefficient arrays.

        phi_hat is (members, 1, ..., m) over the box's normal rows; the other
        two are (members, *lateral box, 1).  Here phi is left unnormalized and
        p, alpha are scaled by |phi|^2 to match, which gives the same M.
        """
        u_bar = self._lateral_mean(u)
        rows = np.concatenate([u_bar, self.ends], axis=-1)
        phi = rows.take(self.up, axis=-1)  # `rows[:, up]` would come back column-major
        phi -= rows.take(self.down, axis=-1)
        phi_hat = (self.q_normal_t @ phi[..., None])[..., 0]
        p = ((phi_hat * phi_hat)[:, None, :] @ self.mu_powers) @ self.poly
        drop = self.well.curvature(u_bar) - self.curvature_at_wells
        phi *= phi
        delta = self.well_weight * (drop[:, None, :] @ phi[..., None])
        # phi = 0 gives p = 0 and a NaN phi (u is clipped, so never infinite) a NaN p: no correction there
        keep = p > 0.0
        p = np.where(keep, p, 1.0)
        alpha = np.maximum(p + delta, SOFT_FLOOR * p)
        weight = np.where(keep, 1.0 / alpha - 1.0 / p, 0.0)
        phi_hat = np.where(keep[:, 0, :1], phi_hat, 0.0)
        return phi_hat.reshape(self.phi_shape), weight.reshape(self.lateral_shape), p.reshape(self.lateral_shape)


class _Geometry:
    """What the batches of one geometry group share; built once per group.

    `box` is the grid's free box (`GridField.free`), the descent's state
    (`EnergyModel.restrict`), and `nodes` its size.  `bases` and `lam` are
    the metric's axis bases on the box and the sum of their Laplacian
    eigenvalues, and `interface` (n >= 2) the interface correction's tables.
    The bases are float32 when the box holds at least FLOAT32_METRIC_NODES
    nodes, else float64 (`dtype`); `lam` and the interface tables stay float64.
    """

    def __init__(self, grid: GridField):
        self.box = grid.free
        self.nodes = math.prod(b.stop - b.start for b in self.box)
        bases, lams = [], []
        for axis, (b, wrap, depth) in enumerate(zip(self.box, grid.periodic, grid.frame)):
            ends = "wrap" if wrap else "fixed-fixed" if depth else "free-free"
            q, lam = _axis_basis(b.stop - b.start, grid.h, ends)
            bases.append(q)
            shape = [1] * grid.n
            shape[axis] = b.stop - b.start
            lams.append(lam.reshape(shape))
        self.lam = sum(lams)
        self.interface = None
        if grid.n >= 2:
            self.interface = _Interface(grid, self.box, bases[-1], lams[-1].ravel(), sum(lams[:-1]))
        self.dtype = np.float32 if self.nodes >= FLOAT32_METRIC_NODES else np.float64
        self.bases = [q.astype(self.dtype, copy=False) for q in bases]


def _metric(model: EnergyModel, geometry: _Geometry, values: np.ndarray) -> tuple:
    """(_Metric, positive) of the batch of the whole-grid model: the metric and whose symbol is positive."""
    eps, lam = model.eps, geometry.lam
    abc = [np.mean(v, axis=_per_member(v), keepdims=True) for v in (model.a, model.b, model.c)]
    a, b, c = abc
    at_wells = model.well.curvature(1.0)
    symbol = model.cell_volume * (2.0 * (c * eps**3 * lam * lam + b * eps * lam) + at_wells * a / eps)
    positive = np.min(symbol, axis=_per_member(symbol)) > 0.0
    interface = None
    if geometry.interface is not None and positive.any():
        interface = geometry.interface.batch(model, abc, values, positive)
    if not positive.all():
        each = (-1,) + (1,) * model.n
        symbol = np.where(positive.reshape(each), symbol, 1.0 / _initial_step(model).reshape(each))
    return _Metric(geometry.bases, symbol.astype(geometry.dtype, copy=False), interface), positive


def _stepped(d: np.ndarray, t: list) -> np.ndarray:
    if any(tk != 1.0 for tk in t):  # a unit step needs no product
        d *= np.reshape(t, (-1,) + (1,) * (d.ndim - 1))
    return d


class _TwoPoint:
    """The two-point (Barzilai-Borwein) rule in the metric: moves t M^-1 g, t = 1 first, then t = s'Ms / s'y.

    With M = I/t0 it is the plain two-point gradient method.  While s = -t d,
    s'Ms is t^2 g'd and costs no transform; a clipped trial's s'Ms is measured.
    """

    clip_resets = False  # a clipped trial is measured, not reset
    pairs = 0

    def __init__(self, metric: _Metric, t: list):
        self.metric, self.t, self.gd = metric, t, []  # gd: g'd of each member's last direction

    def take(self, members) -> "_TwoPoint":
        return _TwoPoint(self.metric.take(members), [self.t[k] for k in members])

    def trial(self, grad: np.ndarray, u: np.ndarray) -> np.ndarray:
        metric = self.metric
        d = metric.inverse(metric.apply(metric.forward(grad), u))
        self.gd = (grad.reshape(len(grad), 1, -1) @ d.reshape(len(d), -1, 1)).ravel().tolist()
        return _stepped(d, self.t)

    def moved(self, u, trial, grad, grad_new, clipped: list, back: list) -> None:
        s = trial - u
        y = grad_new - grad
        y *= s
        sy = _row_sums(y).ravel().tolist()
        ps = [tk * tk * x for tk, x in zip(self.t, self.gd)]
        if any(clipped):
            ps = [x if c else p for x, c, p in zip(self.metric.norm2(s).ravel().tolist(), clipped, ps)]
        for k in set(range(len(self.t))).difference(back):
            if math.isfinite(sy[k]) and sy[k] > 0.0:
                self.t[k] = min(max(ps[k] / sy[k], 1e-12), 1e14)
            else:
                self.t[k] *= 2.0


class _Memory:
    """Limited-memory BFGS in the metric: moves t H g, H0 = M^-1 and the last few secant pairs, t = 1.

    The pairs live in the metric's coordinates (`_Metric.forward`) and dtype:
    y_hat = g_hat - g_hat_prev takes the forward transforms the directions take
    anyway, and s_hat = -t r_hat the coordinates r_hat of the last direction,
    so an iteration still takes one forward and one inverse transform.  The
    bases are orthonormal, so every dot product of the two-loop recursion
    (Nocedal & Wright, Numerical Optimization, alg. 7.4) is the same in
    coordinates.  It runs as stacked matrix products over the (members, pairs,
    nodes) arrays, plus per member a recursion over the products s_i'y_j
    (i older than j), kept as each pair is stored (Liu & Nocedal, Math.
    Program. 45, 1989).

    Each member has its own ring of slots and order of pairs, so it gets the
    bits it gets alone.  A pair is stored only where s'y > 0; a reset member
    drops its pairs, and its next move gives none.
    """

    clip_resets = True  # the cap cut a step of the memory's model short: restart from the record

    def __init__(self, metric: _Metric, members: int, nodes: int, pairs: int):
        self.metric, self.t, self.pairs = metric, [1.0] * members, pairs
        self.pending = [None] * members  # the step of each member's last move where it gives a secant pair
        self.s = np.zeros((members, pairs, nodes), metric.dtype)
        self.y = np.zeros_like(self.s)
        self.order = [[] for _ in range(members)]  # slots, oldest pair first
        self.rho = [[0.0] * pairs for _ in range(members)]  # 1 / s_i'y_i
        self.sy = [[[0.0] * pairs for _ in range(pairs)] for _ in range(members)]  # s_i'y_j, i older than j
        self.g_hat = np.zeros((members, 1, nodes), metric.dtype)  # of the last direction
        self.r_hat = np.zeros_like(self.g_hat)

    def take(self, members) -> "_Memory":
        other = copy.copy(self)
        other.metric = self.metric.take(members)
        other.s, other.y, other.g_hat, other.r_hat = (x[members] for x in (self.s, self.y, self.g_hat, self.r_hat))
        per_member = (self.order, self.rho, self.sy, self.t, self.pending)
        other.order, other.rho, other.sy, other.t, other.pending = ([x[k] for k in members] for x in per_member)
        return other

    def _store(self, k: int, step: float, g_hat: np.ndarray) -> tuple:
        """(slot, s_i'y for every slot i): member k's pair of the step -step r_hat, over its oldest pair if need be."""
        order = self.order[k]
        slot = order.pop(0) if len(order) == len(self.s[k]) else min(set(range(len(self.s[k]))) - set(order))
        s, y = self.s[k], self.y[k]
        np.multiply(self.r_hat[k, 0], -step, out=s[slot])
        np.subtract(g_hat[k, 0], self.g_hat[k, 0], out=y[slot])
        return slot, (s @ y[slot]).tolist()

    def trial(self, g: np.ndarray, u: np.ndarray) -> np.ndarray:
        """t H g at u, after storing the pairs of the last moves."""
        metric, (members, pairs) = self.metric, self.s.shape[:2]
        g_hat = metric.forward(g).reshape(members, 1, -1)
        s_y = {k: self._store(k, step, g_hat) for k, step in enumerate(self.pending) if step is not None}
        s_g = (self.s @ g_hat.transpose(0, 2, 1)).tolist()  # (members, pairs, 1): s_i'g
        coef = []  # per member [alpha_i by slot], then alpha_i - beta_i
        for k in range(members):
            order, rho, sy = self.order[k], self.rho[k], self.sy[k]
            if k in s_y:
                new, dots = s_y[k]
                if math.isfinite(dots[new]) and dots[new] > 0.0:
                    rho[new] = 1.0 / dots[new]
                    for i in order:
                        sy[i][new] = dots[i]
                    order.append(new)
            a = [0.0] * pairs
            for n in range(len(order) - 1, -1, -1):
                i = order[n]
                acc = s_g[k][i][0]
                for j in order[n + 1 :]:
                    acc -= a[j] * sy[i][j]
                a[i] = rho[i] * acc
            coef.append([a])
        q = np.array(coef, self.s.dtype) @ self.y
        np.subtract(g_hat, q, out=q)
        r_hat = metric.apply(q.reshape(g.shape), u).reshape(g_hat.shape)
        y_r = (self.y @ r_hat.transpose(0, 2, 1)).tolist()
        for k in range(members):
            order, rho, sy, c = self.order[k], self.rho[k], self.sy[k], coef[k][0]
            for n, i in enumerate(order):
                acc = y_r[k][i][0]
                for j in order[:n]:
                    acc += c[j] * sy[j][i]
                c[i] -= rho[i] * acc
        r_hat += np.array(coef, self.s.dtype) @ self.s
        self.g_hat, self.r_hat = g_hat, r_hat
        return _stepped(metric.inverse(r_hat.reshape(g.shape)), self.t)

    def moved(self, u, trial, grad, grad_new, clipped: list, back: list) -> None:
        # a reset move gives no pair, and the member drops the pairs it holds; the others step on at t = 1
        self.pending = [None if k in back else tk for k, tk in enumerate(self.t)]
        for k in back:
            self.order[k] = []
        self.t = [tk if k in back else 1.0 for k, tk in enumerate(self.t)]


def _descend(model: EnergyModel, rule, u0: np.ndarray, cfg: SolverConfig, grad_tol: float):
    """Descent by a direction rule (`_TwoPoint`, `_Memory`) with best-so-far tracking, in lockstep.

    `rule.trial(grad, u)` gives the moves t d, and `rule.moved(u, trial, grad,
    grad_new, clipped, back)` sets each member's next step in `rule.t` from
    its move (`clipped` flags the trials the value cap clipped, `back` lists
    the members reset to their record).  The raw trajectory may oscillate
    (that is what makes both rules fast without a line search); accepted
    states are the best-so-far ones, so the reported energy sequence is
    nonincreasing.  A blow-up beyond the best energy by a wide margin, and a
    clipped trial where `rule.clip_resets`, reset the member to its record
    and scale its t down.  A non-finite energy raises DivergenceError.  The
    stopping rule is max|g| <= grad_tol at a state within rounding of the
    record: at or below it, or above it by no more than ROUNDING_ULPS machine
    epsilons of |record| plus the model's bound on the rounding error of the
    state's energy (`EnergyModel.rounding`).  Such a state comes back with its
    own energy.

    u0 is a batch, (members, *shape), and the arrays are stepped together; each
    member keeps its own step, record, resets, pairs and stop test (the
    per-member numbers below are Python lists), so it follows the iterates it
    would follow alone.  A member that stops or raises leaves the working
    arrays (`take`).  Returns one entry per member: (u, energy, iters, final
    grad norm, converged, resets) or its DivergenceError.
    """
    out = [None] * len(u0)
    ids = list(range(len(u0)))
    u = np.clip(u0, -U_CAP, U_CAP, out=u0)
    energy, grad = model.value_and_gradient(u)
    energy = energy.tolist()
    failed = [not math.isfinite(e) for e in energy]
    for k in ids:
        if failed[k]:
            out[k] = DivergenceError(f"initial energy is not finite ({energy[k]})")
    best_u, best_e = u.copy(), list(energy)
    gnorm = _row_max_abs(grad).tolist()
    converged = [g <= grad_tol for g in gnorm]
    resets = [0] * len(ids)
    iters = 0
    while True:
        stop = [c or f or iters >= cfg.max_iters for c, f in zip(converged, failed)]
        if any(stop):
            if any(s and not (c or f) for s, c, f in zip(stop, converged, failed)):
                final_gnorm = _row_max_abs(model.value_and_gradient(best_u)[1]).tolist()
            for k in range(len(ids)):
                if converged[k]:
                    out[ids[k]] = (u[k].copy(), energy[k], iters, gnorm[k], True, resets[k])
                elif stop[k] and not failed[k]:
                    out[ids[k]] = (best_u[k].copy(), best_e[k], iters, final_gnorm[k], False, resets[k])
            keep = [k for k in range(len(ids)) if not stop[k]]
            if not keep:
                return out
            model, rule = model.take(keep), rule.take(keep)
            u, grad, best_u = u[keep], grad[keep], best_u[keep]
            best_e, gnorm, resets, ids = ([x[k] for k in keep] for x in (best_e, gnorm, resets, ids))
            converged, failed = [False] * len(keep), [False] * len(keep)
        iters += 1
        trial = rule.trial(grad, u)
        np.subtract(u, trial, out=trial)
        clipped = (_row_max_abs(trial) > U_CAP).tolist()
        if any(clipped):
            np.clip(trial, -U_CAP, U_CAP, out=trial)
        e_trial, grad_new = model.value_and_gradient(trial)
        energy = e_trial.tolist()
        back = []  # members that restart from their record
        for k, e in enumerate(energy):
            if not math.isfinite(e):
                resets[k] += 1
                if resets[k] > 60:
                    failed[k] = True
                    out[ids[k]] = DivergenceError(f"energy diverged at iteration {iters} (step {rule.t[k]})")
                rule.t[k] = max(rule.t[k] * 0.01, 1e-300)
                back.append(k)
            elif e > best_e[k] + 1e3 * (abs(best_e[k]) + 1.0) or (rule.clip_resets and clipped[k]):
                # runaway trajectory, or a clipped trial the rule does not measure: restart from the record
                resets[k] += 1
                rule.t[k] *= 0.1
                back.append(k)
        if back:
            trial[back] = best_u[back]
            e_trial, grad_new = model.value_and_gradient(trial)
            energy = e_trial.tolist()
        rule.moved(u, trial, grad, grad_new, clipped, back)
        u, grad = trial, grad_new
        gnorm = _row_max_abs(grad).tolist()
        improved, above = [], []
        for k, e in enumerate(energy):
            if k in back:
                continue
            if e < best_e[k]:
                best_e[k] = e
                improved.append(k)
            converged[k] = gnorm[k] <= grad_tol and e <= best_e[k]
            if gnorm[k] <= grad_tol and e > best_e[k]:
                above.append(k)
        if above:
            # small-gradient states above their records: their energies may differ from the records' only by rounding
            bound = model.rounding(u).tolist()
            for k in above:
                converged[k] = energy[k] - best_e[k] <= ROUNDING_ULPS * EPS * abs(best_e[k]) + bound[k]
        if len(improved) == len(ids):
            best_u = u.copy()
        elif improved:
            best_u[improved] = u[improved]


def _solve_batch(initials: list, envs, params: EnergyParams, cfg: SolverConfig, geometry: _Geometry) -> list:
    """Solve problems of one geometry as one lockstep batch, one descent for all members.

    `initials` share shape, spacing, periodic axes and frame, those of
    `geometry`; `envs` has one Environment per initial.  Returns per member a
    SolveResult, bit-identical to what the member gets alone, or the
    DivergenceError its solve raised.  Each result's diagnostics carry the
    batch size (`batch`) and the batch's wall time (`wall_ms`).  The descent
    runs on the free box (`EnergyModel.restrict`), and a reported value is
    the energy it computed for the returned field: the discrete energy of
    that field to rounding.
    """
    t0 = time.perf_counter()
    first = initials[0]
    model = EnergyModel(initials, envs, params)
    grad_tol = cfg.grad_tol if cfg.grad_tol is not None else 1e-6 * first.h**first.n
    values = np.stack([f.values for f in initials])
    if first.frozen.any() and float(np.max(np.abs(values[:, first.frozen]))) > U_CAP:
        raise ValueError("frozen boundary data exceeds the value cap")

    metric, positive = _metric(model, geometry, values)
    # from here on the whole-grid terms are gone: the descent holds the box
    model = model.restrict(values, geometry.box)
    if geometry.dtype == np.float32:
        rule = _Memory(metric, len(initials), geometry.nodes, SECANT_PAIRS)
    else:
        rule = _TwoPoint(metric, [1.0] * len(initials))
    # a contiguous copy of the box, which _descend clips in place
    found = _descend(model, rule, values[(slice(None),) + geometry.box].copy(), cfg, grad_tol)
    descent = {"metric_dtype": metric.dtype.name, "secant_pairs": rule.pairs}
    descent = [{"metric": "preconditioned" if p else "gradient", **descent} for p in positive]
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    results = []
    for k, result in enumerate(found):
        if isinstance(result, DivergenceError):
            results.append(result)
            continue
        u, energy, iters, gnorm, converged, resets = result
        values[k][geometry.box] = u
        results.append(
            SolveResult(
                field=initials[k].copy_with(values[k]),
                value=float(energy),
                iters=iters,
                final_grad_norm=float(gnorm),
                converged=bool(converged),
                diagnostics={
                    "grad_tol": grad_tol,
                    "resets": resets,
                    "stop_reason": "converged" if converged else "max_iters",
                    **descent[k],
                    "batch": len(initials),
                    "wall_ms": wall_ms,
                },
            )
        )
    return results


def _geometry_key(initial: GridField, params: EnergyParams) -> tuple:
    return (initial.shape, initial.frame, initial.periodic, initial.h, params)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, which `taskset` sets; 1 off Linux, where nothing forks."""
    # and 1 unless BLAS read one thread: where numpy loaded before homlab, a pool per core would spin in each worker
    if sys.platform != "linux" or any(v != "1" for v in BLAS_THREADS.values()):
        return 1
    return len(os.sched_getaffinity(0))


def _placed(weights: list, workers: int) -> list:
    """Batch indices per worker, each in submission order.

    Longest first, each batch goes to the least-loaded worker (the lowest
    index on a tie), so worker 0, the caller, takes the heaviest batch.
    """
    loads = [0] * workers
    shares = [[] for _ in range(workers)]
    for b in sorted(range(len(weights)), key=lambda b: -weights[b]):
        w = loads.index(min(loads))
        shares[w].append(b)
        loads[w] += weights[b]
    return [sorted(share) for share in shares]


def _solve_share(problems, batches, share, cfg: SolverConfig) -> list:
    """(index, result) of every problem of the batches `share` names, solved one after another."""
    found = []
    for b in share:
        members, geometry = batches[b]
        initials, envs, params = zip(*(problems[i] for i in members))
        found += zip(members, _solve_batch(list(initials), envs, params[0], cfg, geometry))
    return found


def _worker(problems, batches, share, cfg: SolverConfig, write_fd: int):
    """Body of a forked worker: send the pickled outcome of `share` down `write_fd`, then exit at once."""
    try:
        try:
            sent = (True, _solve_share(problems, batches, share, cfg))
        except Exception as exc:
            sent = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(sent, pickle.HIGHEST_PROTOCOL))
    finally:
        # no atexit handler, buffer flush or test teardown of the parent runs twice
        os._exit(0)


def _solve_shares(problems, batches, shares, cfg: SolverConfig) -> list:
    """Solve shares[0] here and every other share in a forked worker; (index, result) of every problem.

    A worker sends its (index, result) list, or the exception its share
    raised, through its own pipe; that exception is raised here, the first
    in worker order.  Every worker is reaped before this returns or raises,
    and killed first when this process raises.  A share whose fork fails is
    solved here.
    """
    workers = []  # (pid, read end of its pipe)
    own = list(shares[0])
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(problems, batches, share, cfg, write_fd)  # does not return
            except OSError:  # no process to spare (a pids limit): this process solves the share
                os.close(read_fd)
                own = sorted(own + share)
                continue
            finally:
                os.close(write_fd)
            workers.append((pid, read_fd))
        found = _solve_share(problems, batches, own, cfg)
        sent = []
        for pid, read_fd in workers:
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise RuntimeError(f"batch worker {pid} exited without a result")
            sent.append(pickle.loads(data))  # written by _worker above
    except BaseException:
        import signal  # only this path sends a signal

        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_fd in workers:
            os.close(read_fd)
            os.waitpid(pid, 0)
    for ok, payload in sent:
        if not ok:
            raise payload
        found += payload
    return found


def solve_many(problems, cfg: SolverConfig = SolverConfig()) -> list:
    """Solve (initial, env, params) problems, each group of one geometry in lockstep batches.

    Each is a monotone descent from `initial` that keeps frozen nodes bit-exactly;
    the value is the discrete energy of the returned field, an upper bound for the infimum.
    A problem whose frozen frame fills its grid has no node to solve for: it
    is rejected (ValueError) before any batch of the call is solved.
    Problems that share shape, frame, periodic axes, spacing and energy
    parameters form a group.  A group is solved in lockstep batches
    (`_solve_batch`) of at most MAX_BATCH_NODES nodes (at least one
    member each), which bounds the working memory of a batch; each member gets
    the bits it gets alone.  With two or more batches, up to usable_cpus()
    processes solve whole batches side by side: the caller and forked workers
    (Linux only, and only while the process runs one Python thread), which
    changes no bit of any result.  Results come back in submission order; the
    first DivergenceError in that order is raised.
    """
    groups = {}
    for i, (initial, _, params) in enumerate(problems):
        groups.setdefault(_geometry_key(initial, params), []).append(i)
    batches, weights = [], []
    for members in groups.values():
        first = problems[members[0]][0]
        if first.frozen.all():
            raise ValueError(f"the frozen frame fills a grid of shape {first.shape}: no node is free to solve for")
        geometry = _Geometry(first)
        size = max(1, MAX_BATCH_NODES // first.values.size)
        for start in range(0, len(members), size):
            batches.append((members[start : start + size], geometry))
            # a batch costs about nodes x iterations, and iterations grow with the cell's side
            weights.append(len(batches[-1][0]) * first.values.size * max(first.shape))
    workers = 1
    if len(batches) > 1 and threading.active_count() == 1:  # forking a threaded process can copy a held lock
        workers = min(usable_cpus(), len(batches))
    results = [None] * len(problems)
    for i, result in _solve_shares(problems, batches, _placed(weights, workers), cfg):
        results[i] = result
    for result in results:
        if isinstance(result, DivergenceError):
            raise result
    return results
