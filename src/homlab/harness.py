"""Experiment configuration, orchestration, persistence, and the property-suite runner."""

from __future__ import annotations

import configparser
import csv
import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field

# CPython's builtin sha256 (`_sha2` from 3.12, `_sha256` before), as random.py
# does for sha512: hashlib loads OpenSSL, about 3.5 MB of RSS, for one digest per run
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import BLAS_THREADS, __version__
from .core import DoubleWell, compute_c_eta
from .environment import EnvironmentSpec, growth_violations, make_environment, shift_environment
from .geometry import Direction, LatticeCuboid, OrientedCube
from .grids import EnergyModel, EnergyParams, ResolutionError, cube_grid
from .solve import DivergenceError, SolverConfig, usable_cpus
from .cell import (
    CellRecord,
    EstimateError,
    bounds_check,
    cell_problems_r,
    f_hom_reduce,
    glued_partition_energy,
    mu_nu,
    sigma_pair,
    verify_positivity,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunManifest",
    "PropertyResult",
    "load_config",
    "build_manifest",
    "run_sigma",
    "run_cell",
    "run_homogenize",
    "run_sweep",
    "run_verify",
    "write_cell_csv",
    "write_json",
]


# largest |r x0_k| of a cell center: node coordinates resolve h well within it
MAX_CENTER = 2.0**30
# largest q at which sigma reports sigma- and verify runs its sign-dependent properties
MINUS_VARIANT_Q_MAX = 0.25


class ConfigError(ValueError):
    """Configuration is syntactically or semantically invalid.

    `config` is the parsed config when the file parsed but failed validation.
    """

    def __init__(self, message: str, config=None):
        super().__init__(message)
        self.config = config


def _finite(text: str) -> float:
    """The float a config sets; nan and inf are errors, as text that is no number is."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_numbers(text: str, kind=_finite) -> tuple:
    return tuple(kind(tok) for tok in text.replace(",", " ").split())


def _divides(h: float, length: float) -> bool:
    return abs(round(length / h) * h - length) <= 1e-9


def _parse_range(text: str) -> tuple[float, float]:
    values = _parse_numbers(text)
    if len(values) != 2:
        raise ConfigError(f"needs exactly two numbers, got {text!r}")
    return values


def _no_restarts(text: str) -> None:
    if int(text) != 0:
        raise ConfigError("restarts were removed: the solver runs one descent pass, so only restarts = 0 is read")


def _direction_tokens(text: str) -> list:
    """nu_list's tokens: integer directions `p:a,b` as text, angles in degrees as finite floats."""
    return [tok if tok.startswith("p:") else _finite(tok) for tok in text.split()]


def _parse_direction(token, n: int) -> Direction:
    if isinstance(token, float):
        return Direction.from_integers(1 if token >= 0 else -1) if n == 1 else Direction.from_angle_degrees(token)
    parts = token[2:].replace(",", " ").split()
    try:
        ints = [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad integer direction {token!r}") from exc
    if len(ints) != n:
        raise ConfigError(f"direction {token!r} has wrong dimension for n={n}")
    return Direction.from_integers(*ints)


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment description (flat key = value sections).

    nu_list and x0_list default to e_n and the origin of the configured dimension.
    """

    dimension: int = 2
    h: float = 0.25
    r_list: tuple[float, ...] = (8.0, 16.0, 32.0)
    nu_list: tuple[Direction, ...] | None = None
    seeds: tuple[int, ...] = (0,)
    x0_list: tuple[tuple[float, ...], ...] | None = None
    epsilon_list: tuple[float, ...] = (1.0,)
    env: EnvironmentSpec = field(default_factory=EnvironmentSpec)
    solver: SolverConfig = field(default_factory=SolverConfig)
    out_dir: str = "out"

    def __post_init__(self):
        if self.dimension not in (1, 2):  # before any default is built from it
            raise ConfigError("dimension must be 1 or 2")
        if self.nu_list is None:
            self.nu_list = (Direction.from_integers(*([0] * (self.dimension - 1) + [1])),)
        if self.x0_list is None:
            self.x0_list = ((0.0,) * self.dimension,)

    def validate(self):
        if self.h <= 0:
            raise ConfigError("h must be positive")
        for name in ("r_list", "epsilon_list", "seeds", "nu_list", "x0_list"):
            entries = [v.nu if name == "nu_list" else v for v in getattr(self, name)]  # directions by unit vector
            if not entries:
                raise ConfigError(f"{name} must not be empty")
            if len(set(entries)) < len(entries):
                raise ConfigError(f"{name} has a repeated entry")
        for name in ("nu_list", "r_list", "epsilon_list"):  # as work ids, fhom.json and sigma records print them
            printed = {}
            for v in getattr(self, name):
                value = v.angle_degrees() if name == "nu_list" else v
                key = f"{value:g}"
                if key in printed:
                    raise ConfigError(f"{name} entries {printed[key]!r} and {value!r} both print as {key}")
                printed[key] = value
        if any(eps <= 0 for eps in self.epsilon_list):
            raise ConfigError("all epsilon values must be positive")
        if any(r < 4 for r in self.r_list):
            raise ConfigError("all r values must be >= 4")
        for r in self.r_list:
            if not _divides(self.h, r):
                raise ConfigError(f"h = {self.h} does not divide r = {r}")
        if any(nu.n != self.dimension for nu in self.nu_list):
            raise ConfigError("direction dimension does not match experiment dimension")
        if any(len(x0) != self.dimension for x0 in self.x0_list):
            raise ConfigError("x0 dimension does not match experiment dimension")
        if any(max(self.r_list) * abs(v) > MAX_CENTER for x0 in self.x0_list for v in x0):
            raise ConfigError(f"x0_list puts a cell center beyond 2**30 at r = {max(self.r_list):g}")
        broken = growth_violations(self.env)
        if broken:
            raise ConfigError(f"[environment] breaks its growth bounds: {'; '.join(broken)}")
        return self

    @property
    def config_hash(self) -> str:
        """Hash of the resolved settings (CLI overrides included).

        The output location is left out: it does not change any number.  `--seed` is in, though
        only verify reads it: cell, homogenize and sweep solve `seeds`, so it changes no row of theirs.
        """
        resolved = dataclasses.asdict(self)
        del resolved["out_dir"]
        return sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()[:16]


# section -> key -> parser.  A key names the field it sets: of ExperimentConfig
# for [experiment], of its `env` for [environment], of its `solver` for [solver];
# [output] keys set out_<key>.  A key the file leaves out keeps the dataclass default.
# `restarts` and `format` set nothing: they are read only to accept 0 and both, which
# perfbench's generated configs and argv still set.
_CONFIG_KEYS = {
    "experiment": {
        "dimension": int, "h": _finite, "r_list": _parse_numbers, "epsilon_list": _parse_numbers,
        "seeds": lambda text: _parse_numbers(text, int),
        "nu_list": _direction_tokens,  # read as directions once the dimension is known
        "x0_list": lambda text: tuple(tuple(_finite(v) for v in tok.split(",")) for tok in text.split()),
    },
    "environment": {
        "kind": str, "a_range": _parse_range, "b_range": _parse_range, "c_range": _parse_range,
        "q": _finite, "c1": _finite, "c2": _finite, "seed": int,
    },
    "solver": {
        "max_iters": int, "grad_tol": lambda text: None if text in ("auto", "") else _finite(text),
        "restarts": _no_restarts,
    },
    "output": {"dir": str, "format": str},
}


def _read_sections(parser: configparser.ConfigParser) -> dict:
    """Parsed value of every key the file sets, per section; unknown sections and keys are errors."""
    unknown = [name for name in parser.sections() if name not in _CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown section [{unknown[0]}]")
    read = {}
    for section, keys in _CONFIG_KEYS.items():
        read[section] = {}
        for key, text in parser.items(section) if parser.has_section(section) else ():
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            try:
                read[section][key] = keys[key](text)
            except ValueError as exc:
                raise ConfigError(f"bad {key} in [{section}]: {exc}") from exc
    return read


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Config file plus CLI overrides (seed, out; format is read only as both, threads is accepted and ignored)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        read = _read_sections(parser)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    overrides = overrides or {}
    for key, section, name in (("seed", "environment", "seed"), ("out", "output", "dir"), ("format", "output", "format")):
        if overrides.get(key) is not None:
            read[section][name] = overrides[key]
    if read["output"].pop("format", "both") != "both":
        raise ConfigError("format was removed: every command writes all of its outputs, so only both is read")
    exp = read["experiment"]
    try:
        if "nu_list" in exp:
            n = exp.get("dimension", ExperimentConfig.dimension)
            exp["nu_list"] = tuple(_parse_direction(tok, n) for tok in exp["nu_list"])
        cfg = ExperimentConfig(**exp, **{f"out_{key}": value for key, value in read["output"].items()})
        cfg.env = dataclasses.replace(cfg.env, **read["environment"])
        read["solver"].pop("restarts", None)
        cfg.solver = dataclasses.replace(cfg.solver, **read["solver"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        return cfg.validate()
    except ConfigError as exc:
        raise ConfigError(str(exc), cfg) from exc


@dataclass
class RunManifest:
    """Provenance of one run: config hash, version, per-record work-item ids.

    `workers` is the most processes a solve_many call of the run may use (the
    CPUs it may run on) and `blas_threads` the BLAS thread variables homlab
    read at import; neither enters `config_hash`, and no result depends on them.
    """

    config_hash: str
    tool_version: str
    command: str
    started: str
    workers: int
    blas_threads: dict
    records: list = field(default_factory=list)

    def add(self, work_id: str, seed: int):
        self.records.append({"work_id": work_id, "seed": seed})

    def to_dict(self) -> dict:
        """The fields as they are, not copied: `dataclasses.asdict` would deep-copy every record."""
        return dict(vars(self))


def build_manifest(cfg: ExperimentConfig, command: str) -> RunManifest:
    return RunManifest(
        config_hash=cfg.config_hash,
        tool_version=__version__,
        command=command,
        started=time.strftime("%Y-%m-%dT%H:%M:%S"),
        workers=usable_cpus(),
        blas_threads=dict(BLAS_THREADS),
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_cell_csv(path: str, records) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "nu_deg", "r", "seed", "x0_index", "m_hat", "normalized", "iters", "grad_norm", "stop_reason", "batch",
                "resets", "secant_pairs", "wall_ms",
            ]
        )
        for rec in records:
            cell, res = rec.cell, rec.solve
            writer.writerow(
                [
                    _fmt(cell.nu.angle_degrees()),
                    _fmt(cell.r),
                    cell.seed,
                    cell.x0_index,
                    _fmt(rec.m_hat),
                    _fmt(rec.normalized),
                    res.iters,
                    _fmt(res.final_grad_norm),
                    res.diagnostics["stop_reason"],
                    res.diagnostics["batch"],
                    res.diagnostics["resets"],
                    res.diagnostics["secant_pairs"],
                    _fmt(round(res.diagnostics["wall_ms"], 3)),
                ]
            )


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommand drivers
# ---------------------------------------------------------------------------


def run_sigma(cfg: ExperimentConfig, manifest: RunManifest) -> dict:
    """sigma- and sigma+ over epsilon_list; one manifest record `sigma/<variant>/eps=..` per solved scale."""
    if cfg.env.q > MINUS_VARIANT_Q_MAX:
        raise ConfigError(f"minus variant requires q <= {MINUS_VARIANT_Q_MAX} (got {cfg.env.q})")
    try:
        minus, plus = sigma_pair(cfg.env.q, cfg.epsilon_list, cfg.solver)
    except ResolutionError as exc:
        raise ConfigError(f"sigma needs scales resolvable on the unit slab: {exc}") from exc
    for est in (minus, plus):
        for eps in est.solves:
            manifest.add(f"sigma/{est.variant}/eps={eps:g}", cfg.env.seed)
    payload = {
        "q": cfg.env.q,
        "sigma_minus": minus.value,
        "sigma_plus": plus.value,
        "best_epsilon": {"minus": minus.best_epsilon, "plus": plus.best_epsilon},
        "per_epsilon": {
            "minus": {str(k): v for k, v in minus.per_epsilon.items()},
            "plus": {str(k): v for k, v in plus.per_epsilon.items()},
        },
        "stop_reason": {
            est.variant: {str(k): res.diagnostics["stop_reason"] for k, res in est.solves.items()}
            for est in (minus, plus)
        },
        "c_eta": compute_c_eta(DoubleWell(), cfg.env.q),
    }
    write_json(os.path.join(cfg.out_dir, "sigma.json"), payload)
    return payload


def _check_unit_scale(cfg: ExperimentConfig) -> None:
    """ConfigError unless the mesh resolves epsilon = 1, the scale that the cell problems solve at."""
    if cfg.h > 1.0 / 4.0 + 1e-12:
        raise ConfigError(f"h = {cfg.h} cannot resolve the cell problems' scale epsilon = 1; need h <= 1/4")


def _solve_cells(cfg: ExperimentConfig, manifest: RunManifest, command: str) -> list[CellRecord]:
    """Every configured cell, direction x r x seed x x0; one manifest record `<command>/<work id>` each."""
    _check_unit_scale(cfg)
    records = cell_problems_r(cfg.env, cfg.nu_list, cfg.r_list, cfg.seeds, cfg.x0_list, cfg.solver, cfg.h)
    for rec in records:
        manifest.add(f"{command}/{rec.cell.work_id}", rec.cell.seed)
    return records


def run_cell(cfg: ExperimentConfig, manifest: RunManifest) -> list[CellRecord]:
    """CellRecord for every direction x r x seed x x0, in that order."""
    records = _solve_cells(cfg, manifest, "cell")
    write_cell_csv(os.path.join(cfg.out_dir, "cell.csv"), records)
    return records


def run_homogenize(cfg: ExperimentConfig, manifest: RunManifest) -> dict:
    """f_hom per direction, every cell of every direction solved together.

    Each cell solve adds a manifest record `homogenize/nu=../r=../x0=..` before
    any estimate can fail.
    """
    records = _solve_cells(cfg, manifest, "homogenize")
    table = {}
    for nu in cfg.nu_list:
        est = f_hom_reduce(nu, cfg.r_list, cfg.seeds, records)
        table[f"{nu.angle_degrees():.6g}"] = {
            "estimate": est.estimate,
            "stderr": est.stderr,
            "per_seed_limit": {str(k): v for k, v in est.per_seed_limit.items()},
            "x0_spread": {str(k): v for k, v in est.x0_spread.items()},
            "fit_r": {str(k): v for k, v in est.fit_r.items()},
        }
    payload = {"f_hom": table, "r_schedule": list(cfg.r_list)}
    write_json(os.path.join(cfg.out_dir, "fhom.json"), payload)
    write_cell_csv(os.path.join(cfg.out_dir, "fhom_records.csv"), records)
    return payload


def run_sweep(cfg: ExperimentConfig, manifest: RunManifest) -> dict:
    """Polar-plot data: direction angle versus estimated density."""
    payload = run_homogenize(cfg, manifest)
    rows = [(float(k), v["estimate"], v["stderr"]) for k, v in payload["f_hom"].items()]
    rows.sort()
    path = os.path.join(cfg.out_dir, "sweep.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nu_deg", "f_hom", "stderr"])
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return payload


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------


@dataclass
class PropertyResult:
    """One verify line; `error`, left out of verify.json, is the DivergenceError or EstimateError its check raised."""

    name: str
    passed: bool
    detail: str
    informational: bool = False
    error: Exception | None = field(default=None, repr=False, compare=False)


def _line_derivative(model: EnergyModel, u: np.ndarray, v: np.ndarray, d: float = 0.25) -> float:
    """d/dt E(u + t v) at t = 0 by the five-point rule: exact to rounding at any step d, as E is a quartic in t."""
    e = [model.energy(u + j * d * v) for j in (-2, -1, 1, 2)]
    return (e[0] - 8.0 * e[1] + 8.0 * e[2] - e[3]) / (12.0 * d)


def _prop_gradient(cfg: ExperimentConfig, env, cuboids) -> tuple:
    """The descent's gradient against the five-point rule: random fields along random lines, then the well alone.

    On random h = 1/8 fields the 2 Ku part dominates the gradient; on a constant field Ku = 0, so the
    per-node probe there reads the well part wa W'(u) undiluted.
    """
    rng = np.random.default_rng(1)
    cube = OrientedCube((0.0,) * cfg.dimension, 2.0, cfg.nu_list[0])
    worst = 0.0
    for _ in range(5):
        g = cube_grid(cube, 1.0 / 8.0, frame_width=0.25)
        g.values[...] = rng.uniform(-1.5, 1.5, g.shape)
        model = EnergyModel(g, env, EnergyParams(1.0, "general"))
        grad = model.value_and_gradient(g.values)[1]
        for _ in range(8):
            v = rng.normal(size=g.shape)
            an = float(np.sum(grad * v))
            worst = max(worst, abs(_line_derivative(model, g.values, v) - an) / max(abs(an), 1e-12))
    well = 0.0
    for c in (-1.4, -0.5, 0.3, 1.3):
        g = cube_grid(cube, 1.0 / 8.0, frame_width=0.25)
        g.values[...] = c
        model = EnergyModel(g, env, EnergyParams(1.0, "general"))
        grad = model.value_and_gradient(g.values)[1]
        scale = np.max(np.abs(grad))
        for node in np.ndindex(g.shape):
            e_node = np.zeros(g.shape)
            e_node[node] = 1.0
            well = max(well, float(abs(_line_derivative(model, g.values, e_node) - grad[node]) / scale))
    detail = f"max rel err {worst:.3e} on random lines, {well:.3e} per node on constant fields"
    return worst < 1e-9 and well < 1e-9, detail, []


def _prop_growth(cfg: ExperimentConfig, env, cuboids) -> tuple:
    rng = np.random.default_rng(2)
    nu = cfg.nu_list[0]
    violations = 0
    worst = 0.0
    for _ in range(50):
        cube = OrientedCube((0.0,) * cfg.dimension, 2.0, nu)
        g = cube_grid(cube, 0.25, frame_width=0.0)
        g.values[...] = rng.uniform(-2.0, 2.0, g.shape)
        e = EnergyModel(g, env, EnergyParams(1.0, "general")).energy(g.values)
        lo = cfg.env.c1 * EnergyModel(g, env, EnergyParams(1.0, "m_minus")).energy(g.values)
        hi = cfg.env.c2 * EnergyModel(g, env, EnergyParams(1.0, "m_plus")).energy(g.values)
        scale = 1e-10 * (1.0 + abs(e))
        if e < lo - scale or e > hi + scale:
            violations += 1
            worst = max(worst, lo - e, e - hi)
    return violations == 0, f"{violations} violations, worst excess {worst:.3e}", []


def _prop_positivity(cfg: ExperimentConfig, env, cuboids) -> tuple:
    q = cfg.env.q
    report = verify_positivity(q, (1.0, 1.0) if cfg.dimension == 2 else (1.0,), 1.0 / 16.0, 3, cfg.solver)
    starts = f"{sum(report.converged)}/{len(report.converged)} starts converged"
    if q > MINUS_VARIANT_Q_MAX:
        observed = f"outside regime (q = {q} > {MINUS_VARIANT_Q_MAX}); observed min {report.minimum:.3e}, {starts}"
        return None, observed, report.converged
    return report.passed, f"min {report.minimum:.3e}, {starts}", report.converged


def _lattice_direction(cfg: ExperimentConfig) -> Direction:
    for nu in cfg.nu_list:
        if nu.rational_flag:
            return nu
    return Direction.from_integers(*([0] * (cfg.dimension - 1) + [1]))


def _suite_cuboid(cfg: ExperimentConfig, base, within: LatticeCuboid | None = None) -> LatticeCuboid:
    """The suite's lattice cuboid over `base`; ConfigError unless the mesh fits it.

    Its grid needs h to divide its sides; a part glued into the cuboid `within`
    also needs h to divide its offsets from within's lower faces.
    """
    cub = LatticeCuboid((base,), _lattice_direction(cfg))
    lengths = [hi - lo for lo, hi in cub.local_bounds()]
    if within is not None:
        lengths += [lo - outer for (lo, _), (outer, _) in zip(cub.local_bounds(), within.local_bounds())]
    for length in lengths:
        if not _divides(cfg.h, length):
            raise ConfigError(f"h = {cfg.h} does not divide {length:g}, a side or offset of the cuboid over {base}")
    return cub


def _suite_cuboids(cfg: ExperimentConfig) -> dict:
    """The n = 2 checks' lattice cuboids by base; ConfigError unless the mesh fits each and the parts of (0, 3)."""
    cuboids = {base: _suite_cuboid(cfg, base) for base in ((0.0, 2.0), (0.5, 1.5), (0.0, 3.0))}
    for part in ((0.0, 1.5), (1.5, 3.0)):
        _suite_cuboid(cfg, part, within=cuboids[0.0, 3.0])
    return cuboids


def _prop_mu_bounds(cfg: ExperimentConfig, env, cuboids) -> tuple:
    c_eta = compute_c_eta(DoubleWell(), cfg.env.q)
    ok = True
    details, converged = [], []
    for base in ((0.0, 2.0), (0.5, 1.5)):
        cub = cuboids[base]
        sample = mu_nu(env, cub, cfg.solver, cfg.h)  # every suite base has sides >= 1, so it is solved
        upper = cfg.env.c2 * c_eta * cub.base_area
        good = sample.value <= upper + 1e-9 and not sample.anomaly
        ok = ok and good
        details.append(f"{base}: {sample.value:.4g} <= {upper:.4g}")
        converged.append(sample.solve.converged)
    return ok, "; ".join(details), converged


def _prop_subadditivity(cfg: ExperimentConfig, env, cuboids) -> tuple:
    out = glued_partition_energy(env, cuboids[0.0, 3.0], [1.5], cfg.solver, cfg.h)
    return out["slack"] <= 1e-9, f"glued - sum = {out['slack']:.3e}", [res.converged for res in out["parts"]]


def _prop_stationarity(cfg: ExperimentConfig, env, cuboids) -> tuple:
    cub = cuboids[0.0, 2.0]
    worst = 0.0
    converged = []
    for z in ((1,), (-2,)):
        shifted_env = shift_environment(env, tuple(int(v) for v in cub.lattice_shift_vector(z)))
        a = mu_nu(shifted_env, cub, cfg.solver, cfg.h)
        b = mu_nu(env, cub.shifted(z), cfg.solver, cfg.h)
        worst = max(worst, abs(a.value - b.value) / max(abs(b.value), 1e-12))
        converged += [a.solve.converged, b.solve.converged]
    return worst <= 1e-9, f"max rel gap {worst:.3e}", converged


def _prop_bounds(cfg: ExperimentConfig, env, cuboids) -> tuple:
    minus, plus = sigma_pair(cfg.env.q, (0.25, 0.125), cfg.solver)
    nu, seeds = cfg.nu_list[0], cfg.seeds[:2]
    records = cell_problems_r(cfg.env, [nu], cfg.r_list, seeds, None, cfg.solver, cfg.h)
    est = f_hom_reduce(nu, cfg.r_list, seeds, records)
    report = bounds_check(est.estimate, minus.value, plus.value, cfg.env.c1, cfg.env.c2)
    converged = [res.converged for sigma in (minus, plus) for res in sigma.solves.values()]
    converged += [rec.converged for rec in records]
    return report.passed, f"{report.lower:.4g} <= {report.value:.4g} <= {report.upper:.4g}", converged


def _prop_monotonicity(cfg: ExperimentConfig, env, cuboids) -> tuple:
    nu = cfg.nu_list[0]
    eps = min(cfg.epsilon_list)
    c_eta = compute_c_eta(DoubleWell(), cfg.env.q)
    recs = cell_problems_r(cfg.env, [nu], (4.0, 8.0, 16.0), [cfg.env.seed], None, cfg.solver, eps / 4.0, eps)
    seq = [rec.m_hat - cfg.env.c2 * c_eta * rec.cell.cube.side ** (cfg.dimension - 1) for rec in recs]
    ok = all(seq[i + 1] <= seq[i] + 0.02 * abs(seq[i]) + 1e-9 for i in range(len(seq) - 1))
    return ok, f"sequence {['%.4g' % s for s in seq]}", [rec.converged for rec in recs]


def _prop_growth_pointwise(cfg: ExperimentConfig, env, cuboids) -> tuple:
    broken = growth_violations(cfg.env)
    return not broken, "; ".join(broken) or "all six coefficient bounds hold", []


# name, check, needs.  A check takes (cfg, environment, the n = 2 cuboids by base) and returns
# (passed, detail, the converged flag of every solve it read); passed None reports an observation
# outside its regime (informational).  needs: "n=2" skips the property for n = 1, "regime" for q
# above MINUS_VARIANT_Q_MAX.
_PROPERTIES = (
    ("gradient-consistency", _prop_gradient, ()),
    ("growth-sandwich", _prop_growth, ()),
    ("growth-pointwise", _prop_growth_pointwise, ()),
    ("positivity", _prop_positivity, ()),
    ("mu-bounds", _prop_mu_bounds, ("n=2", "regime")),
    ("subadditivity", _prop_subadditivity, ("n=2",)),
    ("stationarity", _prop_stationarity, ("n=2",)),
    ("bounds", _prop_bounds, ("regime",)),
    ("monotonicity", _prop_monotonicity, ("regime",)),
)


def _skip(cfg: ExperimentConfig, needs) -> str | None:
    if "n=2" in needs and cfg.dimension != 2:
        return "skipped for n=1"
    if "regime" in needs and cfg.env.q > MINUS_VARIANT_Q_MAX:
        return f"skipped: q = {cfg.env.q} outside the sign-controlled regime"
    return None


def run_verify(cfg: ExperimentConfig, manifest: RunManifest) -> list[PropertyResult]:
    """Every property in table order, one manifest record `verify/<name>` each; writes verify.json.

    The mesh is checked against the unit scale and every suite cuboid before any check runs.  A
    judged property fails when a solve it read stopped at max_iters.  A check that raises
    DivergenceError or EstimateError gives a failed row with the error as its detail, and in `error`.
    """
    _check_unit_scale(cfg)  # the cell-based properties solve at epsilon = 1 on the mesh h
    cuboids = _suite_cuboids(cfg) if cfg.dimension == 2 else {}
    env = make_environment(cfg.env)
    results = []
    for name, check, needs in _PROPERTIES:
        skip = _skip(cfg, needs)
        try:
            passed, detail, converged = (None, skip, []) if skip else check(cfg, env, cuboids)
        except (DivergenceError, EstimateError) as exc:
            results.append(PropertyResult(name, False, str(exc), error=exc))
            continue
        stopped = converged.count(False)
        if stopped and passed is not None:
            passed, detail = False, f"{detail}; {stopped} of {len(converged)} solves stopped at max_iters"
        results.append(PropertyResult(name, passed is None or passed, detail, informational=passed is None))
    for res in results:
        manifest.add(f"verify/{res.name}", cfg.env.seed)
    rows = [{k: v for k, v in dataclasses.asdict(res).items() if k != "error"} for res in results]
    write_json(os.path.join(cfg.out_dir, "verify.json"), {"results": rows})
    return results
