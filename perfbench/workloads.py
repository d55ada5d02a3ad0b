"""Workloads of the homlab benchmark: generated CLI inputs, output readers and the correctness gate.

Each workload turns a workload seed into a list of `homlab` CLI calls.  The seed
picks members of a fixed input pool of environment seeds; the pools and the
values every pool member produced on the reference commit live in
`reference.json`, so every run can be checked against recorded values and not
only against invariants.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Same checkerboard and acceptance solver profile as configs/example.ini.
CHECKERBOARD_INI = """\
[experiment]
dimension = 2
h = 0.25
r_list = {r_list}
epsilon_list = 1.0
seeds = {seeds}
nu_list = {nu_list}
x0_list = {x0_list}

[environment]
kind = checkerboard
a_range = 0.8 1.2
b_range = -0.04 0.05
c_range = 0.8 1.2
q = 0.05
c1 = 0.8
c2 = 1.2
seed = {env_seed}

[solver]
max_iters = 25000
grad_tol = 6.25e-5
restarts = 0

[output]
dir = out
format = both
"""
CHECKERBOARD_Q = 0.05
CHECKERBOARD_C2 = 1.2
CELL_GRAD_TOL = 6.25e-5

FHOM_RADII = (8, 16, 32)
CELL_DIRECTIONS = ("0", "45", "90", "135")
CELL_CENTERS = ("0,0", "0.25,0")


@dataclass(frozen=True)
class Call:
    """One `homlab` CLI invocation and the output ids it must produce."""

    command: str
    config: str
    expected: tuple[str, ...]

    def argv(self, config_path: str, out_dir: str, threads: int) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir, "--threads", str(threads), "--format", "both"]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _cell_id(nu_deg: str, r: str, seed, x0_index) -> str:
    return f"cell nu={nu_deg} r={r} seed={seed} x0={x0_index}"


def fhom_calls(members) -> list[Call]:
    return [
        Call(
            "homogenize",
            CHECKERBOARD_INI.format(
                r_list=" ".join(str(r) for r in FHOM_RADII), seeds=s, nu_list="90", x0_list="0,0", env_seed=s
            ),
            tuple(_cell_id("90", r, s, 0) for r in FHOM_RADII) + (f"f_hom nu=90 seed={s}",),
        )
        for s in members
    ]


def cells_calls(members) -> list[Call]:
    config = CHECKERBOARD_INI.format(
        r_list="8",
        seeds=" ".join(str(s) for s in members),
        nu_list=" ".join(CELL_DIRECTIONS),
        x0_list=" ".join(CELL_CENTERS),
        env_seed=members[0],
    )
    expected = tuple(
        _cell_id(nu, "8", s, i) for nu in CELL_DIRECTIONS for s in members for i in range(len(CELL_CENTERS))
    )
    return [Call("cell", config, expected)]


# workload -> (call builder, pool members per run)
WORKLOADS = {"fhom_r32": (fhom_calls, 1), "cells_r8_2w": (cells_calls, 2)}


def pool_members(name: str, seed: int, reference: dict) -> list:
    """The pool members the workload seed picks; the same seed always picks the same ones."""
    _, k = WORKLOADS[name]
    return sorted(random.Random(f"{name}:{seed}").sample(list(reference["pools"][name]), k))


def workload_calls(name: str, seed: int, reference: dict) -> list[Call]:
    build, _ = WORKLOADS[name]
    return build(pool_members(name, seed, reference))


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------


def _read_cell_csv(path: str) -> dict:
    """Cell rows keyed by output id; every column except wall_ms, as written."""
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            row.pop("wall_ms", None)
            out[_cell_id(row["nu_deg"], row["r"], row["seed"], row["x0_index"])] = row
    return out


def read_outputs(call: Call, out_dir: str) -> dict:
    """Output id -> record for one finished call; missing files give an empty dict."""
    out = {}
    try:
        if call.command == "cell":
            out.update(_read_cell_csv(os.path.join(out_dir, "cell.csv")))
        elif call.command == "homogenize":
            out.update(_read_cell_csv(os.path.join(out_dir, "fhom_records.csv")))
            with open(os.path.join(out_dir, "fhom.json"), encoding="utf-8") as fh:
                table = json.load(fh)["f_hom"]
            for nu, entry in table.items():
                for env_seed in entry["per_seed_limit"]:
                    out[f"f_hom nu={nu} seed={env_seed}"] = {"estimate": repr(entry["estimate"])}
    except (OSError, ValueError, KeyError):
        pass
    return out


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def reference_value(record_id: str, record: dict) -> float:
    """The number of a record that is compared with the reference."""
    return float(record["m_hat"] if record_id.startswith("cell ") else record["estimate"])


def check_invariants(record_id: str, record: dict | None, c_eta: float) -> str | None:
    """Checks that hold for any input: None when the output passes, else the reason it fails."""
    if record is None:
        return "missing"
    value = reference_value(record_id, record)
    if not math.isfinite(value):
        return f"non-finite value {value}"
    if record_id.startswith("cell "):
        normalized = float(record["normalized"])
        if not 0.0 < normalized <= CHECKERBOARD_C2 * c_eta:
            return f"normalized {normalized} outside (0, c2*C_eta = {CHECKERBOARD_C2 * c_eta}]"
        if not float(record["grad_norm"]) <= CELL_GRAD_TOL:
            return f"not converged (grad_norm {record['grad_norm']} > {CELL_GRAD_TOL})"
    return None


def fit_weights(radii) -> list[float]:
    """Weights of the values in the least-squares intercept of value = limit + A/r (homlab's `_fit_limit`)."""
    xs = [1.0 / r for r in radii]
    sx, sxx = sum(xs), sum(x * x for x in xs)
    det = len(xs) * sxx - sx * sx
    return [(sxx - sx * x) / det for x in xs]


def f_hom_band(record_id: str, reference: dict) -> tuple[float, float]:
    """The f_hom values that cell values inside their own tolerances can give.

    f_hom is the 1/r fit of the normalized cell values m_hat / r, a weighted sum
    with weights -0.5, 0.5 and 1 at r = 8, 16, 32.  Each normalized value may
    fall by `lower_rel` or rise by `upper_rel` (see `check_output`); the band is
    the image of that box under the fit, around the recorded f_hom.
    """
    _, nu, seed = record_id.split(" ")
    tol = reference["tolerance"]
    lo = hi = reference["values"][record_id]
    for r, w in zip(FHOM_RADII, fit_weights(FHOM_RADII)):
        y = reference["values"][_cell_id(nu.split("=")[1], r, seed.split("=")[1], 0)] / r
        up, down = abs(w) * y * tol["upper_rel"], abs(w) * y * tol["lower_rel"]
        hi += up if w > 0 else down
        lo -= down if w > 0 else up
    return lo, hi


def check_output(record_id: str, record: dict | None, reference: dict, c_eta: float) -> str | None:
    """Invariants, then agreement with the value recorded for this input on the reference commit.

    Cell values are upper bounds: a value may undercut its reference by
    `lower_rel` (a better minimizer) but exceed it only by `upper_rel`.  f_hom is
    an extrapolation, not a bound; it may move as far as its cells' tolerances
    can move it, in either direction (`f_hom_band`).
    """
    reason = check_invariants(record_id, record, c_eta)
    if reason is not None:
        return reason
    ref = reference["values"].get(record_id)
    if ref is None:
        return "no reference value recorded for this input"
    value = reference_value(record_id, record)
    tol = reference["tolerance"]
    if record_id.startswith("f_hom "):
        lo, hi = f_hom_band(record_id, reference)
    else:
        lo, hi = ref - tol["lower_rel"] * abs(ref), ref + tol["upper_rel"] * abs(ref)
    if not lo <= value <= hi:
        return f"value {value!r} outside [{lo!r}, {hi!r}] around the reference {ref!r}"
    return None
