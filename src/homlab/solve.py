"""Nonconvex descent over free nodes: preconditioned two-point steps, monotone acceptance, restarts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .environment import Environment
from .geometry import rotation_for
from .grids import EnergyModel, EnergyParams, GridField
from .core import DEFAULT_PROFILE

__all__ = ["SolverConfig", "SolveResult", "DivergenceError", "minimize_energy", "glue_fields"]


class DivergenceError(RuntimeError):
    """Raised when the energy turns non-finite during descent."""


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule and restart policy for minimize_energy.

    grad_tol = None resolves to 1e-6 * h^n at solve time (gradient entries scale
    with the cell volume).  `restarts` counts perturbed re-solves on top of the
    unperturbed first pass.
    """

    max_iters: int = 50_000
    grad_tol: float | None = None
    restarts: int = 3
    noise_scale: float = 0.05
    noise_seed: int = 0

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
    restarts_used: int = 0
    diagnostics: dict = field(default_factory=dict)

    def as_record(self) -> dict:
        """JSON-serializable summary (the field itself is exported separately)."""
        return {
            "value": self.value,
            "iters": self.iters,
            "final_grad_norm": self.final_grad_norm,
            "converged": self.converged,
            "restarts_used": self.restarts_used,
            "shape": list(self.field.shape),
            "h": self.field.h,
            "nu": list(self.field.direction.nu),
            **{k: v for k, v in self.diagnostics.items() if isinstance(v, (int, float, str, bool))},
        }


def _initial_step(model: EnergyModel) -> float:
    # crude curvature bound of the quadratic-form terms; refined by the two-point rule
    h, eps, n = model.h, model.eps, model.n
    a_hi = float(np.max(model.a))
    b_hi = float(np.max(np.abs(model.b)))
    c_hi = float(np.max(model.c))
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
    """Multiply x by mats[a] along each axis a (one small matmul per axis)."""
    if x.ndim == 1:
        return mats[0] @ x
    for axis, q in enumerate(mats):
        x = np.swapaxes(q @ np.swapaxes(x, axis, -2), axis, -2)
    return x


class _Metric:
    """The descent metric P: directions are d = P^-1 g and steps are measured in s'Ps.

    On the bounding box of the free nodes, P is diagonal in a tensor product of
    closed-form axis bases, with the symbol vol*(2(c eps^3 L^2 + b eps L) + 8a/eps)
    (L the sum of the per-axis Laplacian eigenvalues, a, b, c the coefficient
    means): the energy Hessian at u = +-1 for constant coefficients.  If
    that symbol is not positive on the spectrum (e.g. the minus comparison
    energy at large q), P falls back to I/_initial_step(model), which makes the
    descent the plain two-point gradient method.
    """

    def __init__(self, model: EnergyModel, free: np.ndarray):
        self.frozen = ~free
        self.box = None
        if free.any():
            self._build_model_metric(model, free)
        if self.box is None:
            self.name = "gradient"
            self.t_init = _initial_step(model)
        else:
            self.name = "preconditioned"

    def _build_model_metric(self, model: EnergyModel, free: np.ndarray) -> None:
        box, bases, lams = [], [], []
        for axis, size in enumerate(free.shape):
            other = tuple(a for a in range(free.ndim) if a != axis)
            rows = np.flatnonzero(free.any(axis=other))
            lo, hi = int(rows[0]), int(rows[-1]) + 1
            if model.periodic[axis] and (lo, hi) == (0, size):
                ends = "wrap"
            elif model.periodic[axis]:
                ends = "fixed-fixed"
            else:
                ends = f"{'free' if lo == 0 else 'fixed'}-{'free' if hi == size else 'fixed'}"
            q, lam = _axis_basis(hi - lo, model.h, ends)
            box.append(slice(lo, hi))
            bases.append(q)
            shape = [1] * free.ndim
            shape[axis] = hi - lo
            lams.append(lam.reshape(shape))
        lam = sum(lams)
        eps = model.eps
        a, b, c = (float(np.mean(v)) for v in (model.a, model.b, model.c))
        symbol = model.cell_volume * (2.0 * (c * eps**3 * lam * lam + b * eps * lam) + 8.0 * a / eps)
        if float(np.min(symbol)) <= 0.0:
            return
        self.box = tuple(box)
        self.bases = bases
        self.bases_t = [q.T for q in bases]
        self.symbol = symbol

    def direction(self, g: np.ndarray) -> np.ndarray:
        """d = P^-1 g, zero at frozen nodes."""
        if self.box is None:
            return self.t_init * g
        d = np.zeros_like(g)
        coef = _transform(self.bases_t, g[self.box]) / self.symbol
        d[self.box] = _transform(self.bases, coef)
        d[self.frozen] = 0.0
        return d

    def norm2(self, s: np.ndarray) -> float:
        """s'Ps."""
        if self.box is None:
            return float(np.sum(s * s)) / self.t_init
        coef = _transform(self.bases_t, s[self.box])
        return float(np.sum(self.symbol * coef * coef))


def _descend(model: EnergyModel, metric: _Metric, u0: np.ndarray, cfg: SolverConfig, grad_tol: float, cap: float):
    """Two-point (Barzilai-Borwein) iteration in the metric P with best-so-far tracking.

    Directions are d = P^-1 g and the step is t = s'Ps / s'y (t = 1 at the
    start), so with P = I/t0 this is the plain two-point gradient method.  The
    raw trajectory may oscillate (that is what makes the two-point step fast);
    accepted states are the best-so-far ones, so the reported energy sequence
    is nonincreasing.  A blow-up beyond the best energy by a wide margin resets
    the trajectory to the best state with a smaller step; a non-finite energy
    raises DivergenceError.  The stopping rule is max|g| <= grad_tol.
    """
    u = np.clip(u0, -cap, cap)
    energy, grad = model.value_and_gradient(u)
    if not np.isfinite(energy):
        raise DivergenceError(f"initial energy is not finite ({energy})")
    t = 1.0
    best_u, best_e = u.copy(), energy
    gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
    converged = gnorm <= grad_tol
    iters = 0
    resets = 0
    while iters < cfg.max_iters and not converged:
        iters += 1
        trial = np.clip(u - t * metric.direction(grad), -cap, cap)
        e_trial, grad_new = model.value_and_gradient(trial)
        if not np.isfinite(e_trial):
            resets += 1
            if resets > 60:
                raise DivergenceError(f"energy diverged at iteration {iters} (step {t})")
            u, (energy, grad) = best_u.copy(), model.value_and_gradient(best_u)
            t = max(t * 0.01, 1e-300)
            continue
        if e_trial > best_e + 1e3 * (abs(best_e) + 1.0):
            # runaway trajectory: restart from the record with a cautious step
            resets += 1
            u, (energy, grad) = best_u.copy(), model.value_and_gradient(best_u)
            t *= 0.1
            continue
        s = trial - u
        sy = float(np.sum(s * (grad_new - grad)))
        if np.isfinite(sy) and sy > 0.0:
            t = min(max(metric.norm2(s) / sy, 1e-12), 1e14)
        else:
            t *= 2.0
        u, energy, grad = trial, e_trial, grad_new
        if energy < best_e:
            best_e = energy
            best_u = u.copy()
        gnorm = float(np.max(np.abs(grad)))
        # stop only at the record, so that the returned state passes the test
        converged = gnorm <= grad_tol and energy <= best_e
    if converged:
        best_u = u
        final_gnorm = gnorm
    else:
        final_gnorm = float(np.max(np.abs(model.gradient(best_u)))) if best_u.size else 0.0
    return best_u, best_e, iters, final_gnorm, converged, resets


def minimize_energy(
    initial: GridField,
    env: Environment,
    params: EnergyParams,
    cfg: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Monotone descent from `initial` (plus perturbed restarts); returns the best pass.

    Accepted iterates never increase the energy, frozen nodes are preserved
    bit-exactly, and the reported value is the discrete energy of the returned
    field.  The value has upper-bound semantics for the underlying infimum.
    """
    model = EnergyModel(initial, env, params)
    grad_tol = cfg.grad_tol if cfg.grad_tol is not None else 1e-6 * initial.h**initial.n
    cap = initial.u_cap
    if initial.frozen.any() and float(np.max(np.abs(initial.values[initial.frozen]))) > cap:
        raise ValueError("frozen boundary data exceeds the value cap")

    free = initial.free_mask()
    metric = _Metric(model, free)
    best = None
    total_iters = 0
    total_resets = 0
    restarts_used = 0
    for attempt in range(1 + max(0, cfg.restarts)):
        u0 = initial.values.copy()
        if attempt > 0:
            restarts_used += 1
            rng = np.random.Generator(np.random.Philox(key=cfg.noise_seed, counter=attempt))
            u0[free] += cfg.noise_scale * rng.standard_normal(int(free.sum()))
        u, energy, iters, gnorm, converged, resets = _descend(model, metric, u0, cfg, grad_tol, cap)
        total_iters += iters
        total_resets += resets
        if best is None or energy < best[1]:
            best = (u, energy, gnorm, converged, attempt)
    u, energy, gnorm, converged, which = best
    out = initial.copy_with(u)
    return SolveResult(
        field=out,
        value=model.energy(u),
        iters=total_iters,
        final_grad_norm=gnorm,
        converged=converged,
        restarts_used=restarts_used,
        diagnostics={
            "best_attempt": which,
            "grad_tol": grad_tol,
            "resets": total_resets,
            "stop_reason": "converged" if converged else "max_iters",
            "metric": metric.name,
        },
    )


# ---------------------------------------------------------------------------
# Cutoff gluing of fields on overlapping boxes
# ---------------------------------------------------------------------------


def glue_fields(u_field: GridField, v_field: GridField, axis: int, blend_lo: float, blend_hi: float) -> GridField:
    """C2-cutoff blend of two fields across an overlap slab along one local axis.

    The output equals u below blend_lo, v above blend_hi, and the smoothstep
    combination phi*u + (1-phi)*v in between.  Both fields must share h,
    direction, and lattice alignment; their boxes may differ only along `axis`.
    """
    if abs(u_field.h - v_field.h) > 1e-12 or u_field.n != v_field.n:
        raise ValueError("glued fields must share spacing and dimension")
    if u_field.direction.nu != v_field.direction.nu:
        raise ValueError("glued fields must share orientation")
    h, n = u_field.h, u_field.n
    if blend_hi - blend_lo < 4.0 * h - 1e-9:
        raise ValueError("overlap must span at least 4 cells")

    # compare boxes in the shared rotated frame (fold each physical shift into lo)
    rot = rotation_for(u_field.direction)

    def absolute_lo(f: GridField) -> np.ndarray:
        return np.asarray(f.lo) + rot.T @ np.asarray(f.physical_shift)

    u_lo = absolute_lo(u_field)
    v_lo = absolute_lo(v_field)
    for a in range(n):
        off = (v_lo[a] - u_lo[a]) / h
        if abs(off - round(off)) > 1e-9:
            raise ValueError("grids are not lattice-aligned")
        if a != axis and (abs(u_lo[a] - v_lo[a]) > 1e-9 or u_field.shape[a] != v_field.shape[a]):
            raise ValueError("boxes may differ only along the blend axis")

    lo = min(u_lo[axis], v_lo[axis])
    hi = max(
        u_lo[axis] + u_field.shape[axis] * h,
        v_lo[axis] + v_field.shape[axis] * h,
    )
    count = int(round((hi - lo) / h))
    coords = lo + (np.arange(count) + 0.5) * h

    def span(f: GridField) -> tuple[int, int]:
        start = int(round((absolute_lo(f)[axis] - lo) / h))
        return start, start + f.shape[axis]

    u_start, u_end = span(u_field)
    v_start, v_end = span(v_field)
    u_cover_hi = lo + u_end * h
    v_cover_lo = lo + v_start * h
    if blend_hi > u_cover_hi + 1e-9 or blend_lo < v_cover_lo - 1e-9:
        raise ValueError("blend window must be covered by both fields")

    shape = list(u_field.shape)
    shape[axis] = count
    frozen = np.zeros(shape, dtype=bool)

    # smoothstep weight for u: 1 below the window, 0 above
    s = np.clip((coords - blend_lo) / (blend_hi - blend_lo), 0.0, 1.0)
    phi = 1.0 - (1.0 + DEFAULT_PROFILE(s - 0.5)) / 2.0
    w_shape = [1] * n
    w_shape[axis] = count
    phi = phi.reshape(w_shape)

    u_big = np.zeros(shape)
    v_big = np.zeros(shape)
    u_cover = np.zeros(count, dtype=bool)
    v_cover = np.zeros(count, dtype=bool)
    idx = [slice(None)] * n
    idx[axis] = slice(u_start, u_end)
    u_big[tuple(idx)] = u_field.values
    u_cover[u_start:u_end] = True
    idx[axis] = slice(v_start, v_end)
    v_big[tuple(idx)] = v_field.values
    v_cover[v_start:v_end] = True
    # outside its own box each field contributes with weight zero
    only_u = (~v_cover).reshape(w_shape)
    only_v = (~u_cover).reshape(w_shape)
    weight_u = np.where(only_u, 1.0, np.where(only_v, 0.0, phi))
    # exact copies at weight 0/1 and exact pass-through where the fields agree
    blend = v_big + weight_u * (u_big - v_big)
    values = np.where(weight_u >= 1.0, u_big, np.where(weight_u <= 0.0, v_big, blend))

    idx[axis] = slice(u_start, u_end)
    frozen[tuple(idx)] |= u_field.frozen
    idx[axis] = slice(v_start, v_end)
    frozen[tuple(idx)] |= v_field.frozen

    new_lo = list(u_lo)
    new_lo[axis] = lo
    return GridField(
        direction=u_field.direction,
        lo=tuple(float(v) for v in new_lo),
        h=h,
        values=values,
        frozen=frozen,
        periodic=u_field.periodic,
        physical_shift=(0.0,) * n,
        geometry=None,
        u_cap=u_field.u_cap,
    )
