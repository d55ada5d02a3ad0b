"""Nonconvex descent over free nodes: preconditioned two-point steps, monotone acceptance."""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .environment import Environment
from .grids import U_CAP, EnergyModel, EnergyParams, GridField

__all__ = ["SolverConfig", "SolveResult", "DivergenceError", "minimize_energy", "solve_many"]


# nodes per lockstep batch: eight 32^2 cells, two 64^2 cells, one larger cell
MAX_BATCH_NODES = 8192


class DivergenceError(RuntimeError):
    """Raised when the energy turns non-finite during descent."""


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of minimize_energy.

    grad_tol = None resolves to 1e-6 * h^n at solve time (gradient entries scale
    with the cell volume).
    """

    max_iters: int = 20_000
    grad_tol: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


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

    `ends` names the boundary rows: "fixed" ends sit next to frozen nodes (the
    row keeps its 2), "free" ends are edge-replicated grid edges (the row reads
    [1, -1]), and "wrap" closes the axis periodically.  Each basis is closed
    form: sine, cosine, mixed sine or real Fourier.
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
    elif ends in ("fixed-free", "free-fixed"):
        q = np.sin(np.pi * (2 * k + 1) * (j + 1) / (2 * m + 1)) * np.sqrt(4.0 / (2 * m + 1))
        lam = np.sin(np.pi * (2 * k + 1) / (2 * (2 * m + 1))) ** 2
        if ends == "free-fixed":
            q = np.ascontiguousarray(q[::-1])  # a reversed view would keep `q @ x` off BLAS
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
    (`_Interface`), rebuilt from the current u by every `direction`; `norm2`
    measures in the metric of the last direction.

    A member whose symbol is not positive on the spectrum (e.g. the minus
    comparison energy at large q) gets the constant symbol 1/_initial_step
    and no interface correction: M = I/t0, which makes its descent the plain
    two-point gradient method (`_metric`).
    """

    def __init__(self, frozen: np.ndarray, bases, symbol: np.ndarray, interface):
        self.frozen = frozen  # on the box
        self.bases, self.symbol, self.interface = bases, symbol, interface
        self.bases_t = [q.T for q in bases]
        # g'd gives s'Ms / t^2 where d needs no re-zeroing at frozen nodes; on a line (n = 1) norm2 measures it
        self.gives_gd = len(bases) >= 2 and not frozen.any()
        self._modes = None

    def take(self, members) -> "_Metric":
        """The metric of the members at the given indices."""
        interface = None if self.interface is None else self.interface.take(members)
        return _Metric(self.frozen, self.bases, self.symbol[members], interface)

    def direction(self, g: np.ndarray, u: np.ndarray):
        """(d, g'd): d = M^-1 g at u, zero at frozen nodes.

        g'd is per member, shaped (members, 1, ...), and given only where it
        equals s'Ms / t^2 for the step s = -t d; else it is None.
        """
        g_hat = _transform(self.bases_t, g)
        coef = g_hat / self.symbol
        if self.interface is not None:
            self._modes = self.interface.modes(u)
            phi, weight, _ = self._modes
            coef += (weight * (g_hat @ phi[..., None])) * phi[..., None, :]
        d = _transform(self.bases, coef)
        if not self.gives_gd:
            np.copyto(d, 0.0, where=self.frozen)
            return d, None
        return d, g.reshape(len(g), 1, -1) @ d.reshape(len(d), -1, 1)

    def norm2(self, s: np.ndarray) -> np.ndarray:
        """s'Ms per member, shaped (members, 1, ...), in the metric of the last direction."""
        coef = _transform(self.bases_t, s)
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

    `box` is the bounding box of the free nodes (the whole grid when none is
    free), the descent's state (`EnergyModel.restrict`).  `frozen` is the
    frozen mask on the box.  `bases` and `lam` are the metric's axis bases on
    the box and the sum of their Laplacian eigenvalues, and `interface` (n >= 2)
    the interface correction's tables.
    """

    def __init__(self, grid: GridField):
        free = grid.free_mask()
        box, bases, lams = [], [], []
        for axis, size in enumerate(grid.shape):
            other = tuple(a for a in range(grid.n) if a != axis)
            rows = np.flatnonzero(free.any(axis=other))
            lo, hi = (int(rows[0]), int(rows[-1]) + 1) if len(rows) else (0, size)
            wrap = grid.periodic[axis]
            box.append(slice(lo, hi))
            if wrap and (lo, hi) == (0, size):
                ends = "wrap"
            elif wrap:
                ends = "fixed-fixed"
            else:
                ends = f"{'free' if lo == 0 else 'fixed'}-{'free' if hi == size else 'fixed'}"
            q, lam = _axis_basis(hi - lo, grid.h, ends)
            bases.append(q)
            shape = [1] * grid.n
            shape[axis] = hi - lo
            lams.append(lam.reshape(shape))
        self.box = tuple(box)
        self.frozen = grid.frozen[self.box]
        self.bases, self.lam = bases, sum(lams)
        self.interface = None
        if grid.n >= 2:
            self.interface = _Interface(grid, self.box, bases[-1], lams[-1].ravel(), sum(lams[:-1]))


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
    return _Metric(geometry.frozen, geometry.bases, symbol, interface), positive


def _descend(model: EnergyModel, metric: _Metric, u0: np.ndarray, cfg: SolverConfig, grad_tol: float):
    """Two-point (Barzilai-Borwein) iteration in the metric M with best-so-far tracking, in lockstep.

    Directions are d = M^-1 g and the step is t = s'Ms / s'y (t = 1 at the
    start), so with M = I/t0 this is the plain two-point gradient method.
    Where the metric gives g'd and the clip left s = -t d alone, s'Ms is
    t^2 g'd and costs no transform; else it is measured exactly.  The
    raw trajectory may oscillate (that is what makes the two-point step fast);
    accepted states are the best-so-far ones, so the reported energy sequence
    is nonincreasing.  A blow-up beyond the best energy by a wide margin resets
    the trajectory to the best state with a smaller step; a non-finite energy
    raises DivergenceError.  The stopping rule is max|g| <= grad_tol at the record.

    u0 is a batch, (members, *shape), and the arrays are stepped together; each
    member keeps its own step, record, resets and stop test (the per-member
    numbers below are Python lists), so it follows the iterates it would follow
    alone.  A member that stops or raises leaves the working arrays.  Returns one
    entry per member: (u, energy, iters, final grad norm, converged, resets) or
    its DivergenceError.
    """
    out = [None] * len(u0)
    ids = list(range(len(u0)))
    each = (-1,) + (1,) * model.n  # shape of one number per member
    u = np.clip(u0, -U_CAP, U_CAP, out=u0)
    energy, grad = model.value_and_gradient(u)
    energy = energy.tolist()
    failed = [not math.isfinite(e) for e in energy]
    for k in ids:
        if failed[k]:
            out[k] = DivergenceError(f"initial energy is not finite ({energy[k]})")
    t = [1.0] * len(ids)
    best_u, best_e = u.copy(), list(energy)
    gnorm = _row_max_abs(grad).tolist()
    converged = [g <= grad_tol for g in gnorm]
    resets = [0] * len(ids)
    iters = 0
    while True:
        stop = [c or f or iters >= cfg.max_iters for c, f in zip(converged, failed)]
        if any(stop):
            if any(s and not (c or f) for s, c, f in zip(stop, converged, failed)):
                final_gnorm = _row_max_abs(model.gradient(best_u)).tolist()
            for k in range(len(ids)):
                if converged[k]:
                    out[ids[k]] = (u[k].copy(), best_e[k], iters, gnorm[k], True, resets[k])
                elif stop[k] and not failed[k]:
                    out[ids[k]] = (best_u[k].copy(), best_e[k], iters, final_gnorm[k], False, resets[k])
            keep = [k for k in range(len(ids)) if not stop[k]]
            if not keep:
                return out
            model, metric = model.take(keep), metric.take(keep)
            u, grad, best_u = u[keep], grad[keep], best_u[keep]
            t, best_e, gnorm, resets, ids = ([x[k] for k in keep] for x in (t, best_e, gnorm, resets, ids))
            converged, failed = [False] * len(keep), [False] * len(keep)
        iters += 1
        trial, gd = metric.direction(grad, u)
        trial *= np.reshape(t, each)
        np.subtract(u, trial, out=trial)
        if gd is not None:
            # s'Ms = t^2 g'd while s = -t d; a member the clip shortens needs the exact s'Ms
            ps = [tk * tk * x for tk, x in zip(t, gd.ravel().tolist())]
            clipped = (_row_max_abs(trial) > U_CAP).tolist()
        np.clip(trial, -U_CAP, U_CAP, out=trial)
        e_trial, grad_new = model.value_and_gradient(trial)
        energy = e_trial.tolist()
        back = []  # members that restart from their record
        for k, e in enumerate(energy):
            if not math.isfinite(e):
                resets[k] += 1
                if resets[k] > 60:
                    failed[k] = True
                    out[ids[k]] = DivergenceError(f"energy diverged at iteration {iters} (step {t[k]})")
                t[k] = max(t[k] * 0.01, 1e-300)
                back.append(k)
            elif e > best_e[k] + 1e3 * (abs(best_e[k]) + 1.0):
                # runaway trajectory: restart from the record with a cautious step
                resets[k] += 1
                t[k] *= 0.1
                back.append(k)
        if back:
            trial[back] = best_u[back]
            e_trial, grad_new = model.value_and_gradient(trial)
            energy = e_trial.tolist()
        s = trial - u
        y = grad_new - grad
        y *= s
        sy = _row_sums(y).ravel().tolist()
        if gd is None:
            ps = metric.norm2(s).ravel().tolist()
        elif any(clipped):
            ps = [x if c else p for x, c, p in zip(metric.norm2(s).ravel().tolist(), clipped, ps)]
        u, grad = trial, grad_new
        gnorm = _row_max_abs(grad).tolist()
        improved = []
        for k, e in enumerate(energy):
            if k in back:
                continue
            if math.isfinite(sy[k]) and sy[k] > 0.0:
                t[k] = min(max(ps[k] / sy[k], 1e-12), 1e14)
            else:
                t[k] *= 2.0
            if e < best_e[k]:
                best_e[k] = e
                improved.append(k)
            # stop only at the record, so that the returned state passes the test
            converged[k] = gnorm[k] <= grad_tol and e <= best_e[k]
        if len(improved) == len(ids):
            best_u = u.copy()
        elif improved:
            best_u[improved] = u[improved]


def _solve_batch(initials: list, envs, params: EnergyParams, cfg: SolverConfig, geometry: _Geometry) -> list:
    """Solve problems of one geometry as one lockstep batch, one descent for all members.

    `initials` share shape, spacing, periodic axes and frozen nodes, those of
    `geometry`; `envs` has one Environment per initial.  Returns per member a
    SolveResult, bit-identical to what the member gets alone, or the
    DivergenceError its solve raised.  Each result's diagnostics carry the
    batch size (`batch`) and the batch's wall time (`wall_ms`).  The descent
    runs on the box of free nodes (`EnergyModel.restrict`), and a reported
    value is the energy it computed for the returned field: the discrete
    energy of that field to rounding.
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
    # a contiguous copy of the box, which _descend clips in place
    found = _descend(model, metric, values[(slice(None),) + geometry.box].copy(), cfg, grad_tol)
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
                    "metric": "preconditioned" if positive[k] else "gradient",
                    "batch": len(initials),
                    "wall_ms": wall_ms,
                },
            )
        )
    return results


def minimize_energy(
    initial: GridField,
    env: Environment,
    params: EnergyParams,
    cfg: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Monotone descent from `initial`.

    Accepted iterates never increase the energy, frozen nodes are preserved
    bit-exactly, and the reported value is the discrete energy of the returned
    field.  The value has upper-bound semantics for the underlying infimum.
    A solve_many of one problem.
    """
    (result,) = solve_many([(initial, env, params)], cfg)
    return result


def _geometry_key(initial: GridField, env: Environment, params: EnergyParams) -> tuple:
    return (initial.shape, initial.frozen.tobytes(), initial.periodic, initial.h, params, env.well)


def solve_many(problems, cfg: SolverConfig = SolverConfig()) -> list:
    """Solve (initial, env, params) problems, each group of one geometry in lockstep batches.

    Problems that share shape, frozen nodes, periodic axes, spacing, energy
    parameters and double well form a group.  A group is solved in lockstep
    batches (`_solve_batch`) of at most MAX_BATCH_NODES nodes (at least one
    member each), which bounds the working memory of a batch; each member gets
    the bits it gets alone.  Results come back in submission order; the first
    DivergenceError in that order is raised.
    """
    groups = {}
    for i, (initial, env, params) in enumerate(problems):
        groups.setdefault(_geometry_key(initial, env, params), []).append(i)
    results = [None] * len(problems)
    for members in groups.values():
        geometry = _Geometry(problems[members[0]][0])
        size = max(1, MAX_BATCH_NODES // problems[members[0]][0].values.size)
        for start in range(0, len(members), size):
            batch = members[start : start + size]
            initials, envs, params = zip(*(problems[i] for i in batch))
            for i, result in zip(batch, _solve_batch(list(initials), envs, params[0], cfg, geometry)):
                results[i] = result
    for result in results:
        if isinstance(result, DivergenceError):
            raise result
    return results

