"""Experiment configuration, orchestration, persistence, and the property-suite runner."""

from __future__ import annotations

import configparser
import csv
import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import DoubleWell, compute_c_eta
from .environment import EnvironmentSpec, make_environment, shift_environment, verify_growth_bounds
from .geometry import Direction, LatticeCuboid, OrientedCube
from .grids import EnergyModel, EnergyParams, cube_grid
from .solve import SolverConfig
from .cell import (
    MINUS_VARIANT_Q_MAX,
    CellRecord,
    bounds_check,
    cell_problems_r,
    eps_scaled_cell,
    f_hom_estimate,
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
    "run_property_suite",
    "write_cell_csv",
    "write_json",
]


class ConfigError(ValueError):
    """Configuration is syntactically or semantically invalid.

    `config` is the parsed config when the file parsed but failed validation.
    """

    def __init__(self, message: str, config=None):
        super().__init__(message)
        self.config = config


def _parse_numbers(text: str, kind=float) -> tuple:
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


def _parse_direction(token: str, n: int) -> Direction:
    token = token.strip()
    if token.startswith("p:"):
        parts = token[2:].replace(",", " ").split()
        try:
            ints = [int(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"bad integer direction {token!r}") from exc
        if len(ints) != n:
            raise ConfigError(f"direction {token!r} has wrong dimension for n={n}")
        return Direction.from_integers(*ints)
    try:
        value = float(token)
    except ValueError as exc:
        raise ConfigError(f"bad direction token {token!r}") from exc
    if n == 1:
        return Direction.from_integers(1 if value >= 0 else -1)
    return Direction.from_angle_degrees(value)


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
        return self

    @property
    def config_hash(self) -> str:
        """Hash of the resolved settings that decide the results (CLI overrides included).

        The output location is left out: it does not change any number.
        """
        resolved = dataclasses.asdict(self)
        del resolved["out_dir"]
        return hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()[:16]


# section -> key -> parser.  A key names the field it sets: of ExperimentConfig
# for [experiment], of its `env` for [environment], of its `solver` for [solver];
# [output] keys set out_<key>.  A key the file leaves out keeps the dataclass default.
# `restarts` and `format` set nothing: they are read only to accept 0 and both, which
# perfbench's generated configs and argv still set.
_CONFIG_KEYS = {
    "experiment": {
        "dimension": int, "h": float, "r_list": _parse_numbers, "epsilon_list": _parse_numbers,
        "seeds": lambda text: _parse_numbers(text, int),
        "nu_list": str.split,  # tokens; read as directions once the dimension is known
        "x0_list": lambda text: tuple(tuple(float(v) for v in tok.split(",")) for tok in text.split()),
    },
    "environment": {
        "kind": str, "a_range": _parse_range, "b_range": _parse_range, "c_range": _parse_range,
        "q": float, "c1": float, "c2": float, "seed": int,
    },
    "solver": {
        "max_iters": int, "grad_tol": lambda text: None if text in ("auto", "") else float(text),
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
    """Provenance of one run: config hash, version, per-record work-item ids."""

    config_hash: str
    tool_version: str
    command: str
    started: str
    records: list = field(default_factory=list)

    def add(self, work_id: str, seed: int):
        self.records.append({"work_id": work_id, "seed": seed})

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "command": self.command,
            "started": self.started,
            "records": self.records,
        }


def build_manifest(cfg: ExperimentConfig, command: str) -> RunManifest:
    return RunManifest(
        config_hash=cfg.config_hash,
        tool_version=__version__,
        command=command,
        started=time.strftime("%Y-%m-%dT%H:%M:%S"),
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
            ["nu_deg", "r", "seed", "x0_index", "m_hat", "normalized", "iters", "grad_norm", "stop_reason", "wall_ms"]
        )
        for rec in records:
            writer.writerow(
                [
                    _fmt(rec.nu.angle_degrees()),
                    _fmt(rec.r),
                    rec.seed,
                    rec.x0_index,
                    _fmt(rec.m_hat),
                    _fmt(rec.normalized),
                    rec.diagnostics.get("iters", ""),
                    _fmt(rec.diagnostics.get("grad_norm", float("nan"))),
                    rec.diagnostics.get("stop_reason", ""),
                    _fmt(round(rec.diagnostics.get("wall_ms", 0.0), 3)),
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


def run_sigma(cfg: ExperimentConfig, manifest: RunManifest | None = None) -> dict:
    """sigma- and sigma+ over epsilon_list; with a manifest, one record `sigma/<variant>/eps=..` per solved scale."""
    well = DoubleWell()
    try:
        minus, plus = sigma_pair(well, cfg.env.q, cfg.epsilon_list, cfg.solver)
    except ValueError as exc:
        raise ConfigError(f"sigma needs scales resolvable on the unit slab: {exc}") from exc
    if manifest is not None:
        for est in (minus, plus):
            for eps in est.fields:
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
            "minus": {str(k): v for k, v in minus.stop_reason.items()},
            "plus": {str(k): v for k, v in plus.stop_reason.items()},
        },
        "c_eta": compute_c_eta(well, cfg.env.q),
    }
    write_json(os.path.join(cfg.out_dir, "sigma.json"), payload)
    return payload


def _check_unit_scale(cfg: ExperimentConfig) -> None:
    """ConfigError unless the mesh resolves epsilon = 1, the scale that the cell problems solve at."""
    if cfg.h > 1.0 / 4.0 + 1e-12:
        raise ConfigError(f"h = {cfg.h} cannot resolve the cell problems' scale epsilon = 1; need h <= 1/4")


def _solve_cells(cfg: ExperimentConfig, manifest: RunManifest | None, command: str) -> list[CellRecord]:
    """Every configured cell, direction x r x seed x x0; with a manifest, one record `<command>/<work id>` each."""
    _check_unit_scale(cfg)
    records = cell_problems_r(cfg.env, cfg.nu_list, cfg.r_list, cfg.seeds, cfg.x0_list, cfg.solver, cfg.h)
    if manifest is not None:
        for rec in records:
            manifest.add(f"{command}/{rec.work_id}", rec.seed)
    return records


def run_cell(cfg: ExperimentConfig, manifest: RunManifest | None = None) -> list[CellRecord]:
    """CellRecord for every direction x r x seed x x0, in that order."""
    records = _solve_cells(cfg, manifest, "cell")
    write_cell_csv(os.path.join(cfg.out_dir, "cell.csv"), records)
    return records


def run_homogenize(cfg: ExperimentConfig, manifest: RunManifest | None = None) -> dict:
    """f_hom per direction, every cell of every direction solved together.

    With a manifest, each cell solve adds a record `homogenize/nu=../r=../x0=..`
    before any estimate can fail.
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
        }
    payload = {"f_hom": table, "r_schedule": list(cfg.r_list)}
    write_json(os.path.join(cfg.out_dir, "fhom.json"), payload)
    write_cell_csv(os.path.join(cfg.out_dir, "fhom_records.csv"), records)
    return payload


def run_sweep(cfg: ExperimentConfig, manifest: RunManifest | None = None) -> dict:
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
    name: str
    passed: bool
    detail: str
    informational: bool = False


def _prop_gradient(cfg: ExperimentConfig) -> PropertyResult:
    rng = np.random.default_rng(1)
    env = make_environment(cfg.env)
    worst = 0.0
    nu = cfg.nu_list[0]
    for _ in range(5):
        cube = OrientedCube((0.0,) * cfg.dimension, 2.0, nu)
        g = cube_grid(cube, 1.0 / 8.0, frame_width=0.25)
        g.values[...] = rng.uniform(-1.5, 1.5, g.shape)
        model = EnergyModel(g, env, EnergyParams(1.0, "general"))
        grad = model.gradient(g.values)
        for _ in range(8):
            v = rng.normal(size=g.shape)
            v[g.frozen] = 0.0
            d = 1e-6
            fd = (model.energy(g.values + d * v) - model.energy(g.values - d * v)) / (2 * d)
            an = float(np.sum(grad * v))
            worst = max(worst, abs(fd - an) / max(abs(an), 1e-12))
    return PropertyResult("gradient-consistency", worst < 1e-5, f"max rel err {worst:.3e}")


def _prop_growth(cfg: ExperimentConfig) -> PropertyResult:
    rng = np.random.default_rng(2)
    env = make_environment(cfg.env)
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
    return PropertyResult("growth-sandwich", violations == 0, f"{violations} violations, worst excess {worst:.3e}")


def _prop_positivity(cfg: ExperimentConfig) -> PropertyResult:
    q = cfg.env.q
    report = verify_positivity(q, (1.0, 1.0) if cfg.dimension == 2 else (1.0,), 1.0 / 16.0, 3, cfg.solver)
    starts = f"{sum(report.converged)}/{len(report.converged)} starts converged"
    if q > MINUS_VARIANT_Q_MAX:
        return PropertyResult(
            "positivity",
            True,
            f"outside regime (q = {q} > {MINUS_VARIANT_Q_MAX}); observed min {report.minimum:.3e}, {starts}",
            informational=True,
        )
    return PropertyResult("positivity", report.passed, f"min {report.minimum:.3e}, {starts}")


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


def _outside_regime(cfg: ExperimentConfig, name: str) -> PropertyResult | None:
    if cfg.env.q > MINUS_VARIANT_Q_MAX:
        return PropertyResult(
            name,
            True,
            f"skipped: q = {cfg.env.q} outside the sign-controlled regime",
            informational=True,
        )
    return None


def _prop_mu_bounds(cfg: ExperimentConfig) -> PropertyResult:
    if cfg.dimension != 2:
        return PropertyResult("mu-bounds", True, "skipped for n=1", informational=True)
    gated = _outside_regime(cfg, "mu-bounds")
    if gated:
        return gated
    env = make_environment(cfg.env)
    c_eta = compute_c_eta(DoubleWell(), cfg.env.q)
    ok = True
    details = []
    for base in ((0.0, 2.0), (0.5, 1.5)):
        cub = _suite_cuboid(cfg, base)
        sample = mu_nu(env, cub, cfg.solver, cfg.h)
        upper = cfg.env.c2 * c_eta * cub.base_area
        good = -1e-6 <= sample.value <= upper + 1e-9 and not sample.anomaly
        ok = ok and good
        details.append(f"{base}: {sample.value:.4g} <= {upper:.4g}")
    return PropertyResult("mu-bounds", ok, "; ".join(details))


def _prop_subadditivity(cfg: ExperimentConfig) -> PropertyResult:
    if cfg.dimension != 2:
        return PropertyResult("subadditivity", True, "skipped for n=1", informational=True)
    cub = _suite_cuboid(cfg, (0.0, 3.0))
    for part in ((0.0, 1.5), (1.5, 3.0)):
        _suite_cuboid(cfg, part, within=cub)
    env = make_environment(cfg.env)
    out = glued_partition_energy(env, cub, [1.5], cfg.solver, cfg.h)
    return PropertyResult(
        "subadditivity",
        out["slack"] <= 1e-9,
        f"glued - sum = {out['slack']:.3e}",
    )


def _prop_stationarity(cfg: ExperimentConfig) -> PropertyResult:
    if cfg.dimension != 2:
        return PropertyResult("stationarity", True, "skipped for n=1", informational=True)
    env = make_environment(cfg.env)
    cub = _suite_cuboid(cfg, (0.0, 2.0))
    worst = 0.0
    for z in ((1,), (-2,)):
        shifted_env = shift_environment(env, tuple(int(v) for v in cub.lattice_shift_vector(z)))
        a = mu_nu(shifted_env, cub, cfg.solver, cfg.h)
        b = mu_nu(env, cub.shifted(z), cfg.solver, cfg.h)
        worst = max(worst, abs(a.value - b.value) / max(abs(b.value), 1e-12))
    return PropertyResult("stationarity", worst <= 1e-9, f"max rel gap {worst:.3e}")


def _prop_bounds(cfg: ExperimentConfig) -> PropertyResult:
    gated = _outside_regime(cfg, "bounds")
    if gated:
        return gated
    well = DoubleWell()
    minus, plus = sigma_pair(well, cfg.env.q, (0.25, 0.125), cfg.solver)
    nu = cfg.nu_list[0]
    est = f_hom_estimate(cfg.env, nu, cfg.r_list, cfg.seeds[:2], cfg.solver, cfg.h)
    report = bounds_check(est.estimate, minus.value, plus.value, cfg.env.c1, cfg.env.c2)
    return PropertyResult(
        "bounds",
        report.passed,
        f"{report.lower:.4g} <= {report.value:.4g} <= {report.upper:.4g}",
    )


def _prop_monotonicity(cfg: ExperimentConfig) -> PropertyResult:
    gated = _outside_regime(cfg, "monotonicity")
    if gated:
        return gated
    env = make_environment(cfg.env)
    nu = cfg.nu_list[0]
    eps = min(cfg.epsilon_list)
    c_eta = compute_c_eta(DoubleWell(), cfg.env.q)
    rhos = [4 * eps, 8 * eps, 16 * eps]
    seq = []
    for rho in rhos:
        rec = eps_scaled_cell(env, nu, rho, eps, (0.0,) * cfg.dimension, cfg.solver, h=eps / 4.0)
        seq.append(rec.m_hat - cfg.env.c2 * c_eta * rho ** (cfg.dimension - 1))
    ok = all(seq[i + 1] <= seq[i] + 0.02 * abs(seq[i]) + 1e-9 for i in range(len(seq) - 1))
    return PropertyResult("monotonicity", ok, f"sequence {['%.4g' % s for s in seq]}")


def _prop_growth_random_env(cfg: ExperimentConfig) -> PropertyResult:
    env = make_environment(cfg.env)
    report = verify_growth_bounds(env, samples=400, n=cfg.dimension, seed=5)
    return PropertyResult("growth-pointwise", report.passed, f"{len(report.counterexamples)} counterexamples")


def run_property_suite(cfg: ExperimentConfig) -> list[PropertyResult]:
    _check_unit_scale(cfg)  # the cell-based properties solve at epsilon = 1 on the mesh h
    checks = [
        _prop_gradient,
        _prop_growth,
        _prop_growth_random_env,
        _prop_positivity,
        _prop_mu_bounds,
        _prop_subadditivity,
        _prop_stationarity,
        _prop_bounds,
        _prop_monotonicity,
    ]
    return [check(cfg) for check in checks]
