import csv
import dataclasses
import json
import os
import re
from pathlib import Path

import pytest

from homlab.cli import UPPER_BOUND_NOTE, main
from homlab.cell import cell_problems_r
from homlab.harness import ConfigError, build_manifest, load_config, run_cell, run_verify
from homlab.solve import solve_many, usable_cpus

GOOD_CONFIG = """
[experiment]
dimension = 2
h = 0.25
r_list = 4 8
epsilon_list = 1.0
seeds = 0 1
nu_list = 0 p:3,4
x0_list = 0,0

[environment]
kind = checkerboard
a_range = 0.9 1.1
b_range = 0.0 0.05
c_range = 0.9 1.1
q = 0.05
c1 = 0.8
c2 = 1.2
seed = 3

[solver]
max_iters = 4000
grad_tol = 6.25e-5

[output]
dir = {out}
"""


def write_config(tmp_path, text=GOOD_CONFIG, name="exp.ini"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(text.format(out=out))
    return str(path), str(out)


def test_load_config_roundtrip(tmp_path):
    path, out = write_config(tmp_path)
    cfg = load_config(path)
    assert cfg.dimension == 2
    assert cfg.r_list == (4.0, 8.0)
    assert cfg.seeds == (0, 1)
    assert cfg.nu_list[0].nu == (0.0, 1.0)
    assert cfg.nu_list[1].integer_vector == (3, 4)
    assert cfg.env.kind == "checkerboard"
    assert cfg.solver.max_iters == 4000
    assert cfg.out_dir == out


def test_sigma_config_with_h_above_a_quarter_of_epsilon_loads_and_runs(tmp_path):
    # sigma solves each scale on its own mesh eps/8, so h = 0.25 does not have to resolve eps = 0.5
    text = Path(__file__).parents[1].joinpath("configs", "sigma.ini").read_text()
    text = text.replace("h = 0.015625", "h = 0.25").replace("epsilon_list = 0.25 0.125 0.0625", "epsilon_list = 0.5")
    path, out = write_config(tmp_path, text.replace("dir = out", "dir = {out}"))
    cfg = load_config(path)
    assert (cfg.h, cfg.epsilon_list) == (0.25, (0.5,))
    assert main(["sigma", "--config", path]) == 0
    assert Path(out, "sigma.json").exists()


def test_sigma_json_reports_every_solve_that_stopped_early(tmp_path):
    # one iteration stops every slab solve early; sigma still exits 0, so the payload has to say so
    text = Path(__file__).parents[1].joinpath("configs", "sigma.ini").read_text()
    text = text.replace("max_iters = 40000", "max_iters = 1").replace("dir = out", "dir = {out}")
    path, out = write_config(tmp_path, text)
    assert main(["sigma", "--config", path]) == 0
    payload = json.loads(Path(out, "sigma.json").read_text())
    scales = {"0.25", "0.125", "0.0625"}
    for variant in ("minus", "plus"):
        assert set(payload["stop_reason"][variant]) == scales
        assert set(payload["stop_reason"][variant].values()) == {"max_iters"}


def test_config_rejects_small_r(tmp_path):
    bad = GOOD_CONFIG.replace("r_list = 4 8", "r_list = 2 8")
    path, _ = write_config(tmp_path, bad)
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_bad_environment(tmp_path):
    bad = GOOD_CONFIG.replace("a_range = 0.9 1.1", "a_range = 0 1.1")
    path, _ = write_config(tmp_path, bad)
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_seed_override(tmp_path):
    path, _ = write_config(tmp_path)
    cfg = load_config(path, {"seed": 42})
    assert cfg.env.seed == 42


def test_seed_flag_changes_the_config_hash_but_no_cell_row(tmp_path):
    # --seed sets [environment] seed, which only verify's single-environment properties
    # read; cell solves the `seeds` list
    rows, hashes = [], []
    for flags in ([], ["--seed", "5"]):
        path, out = write_config(tmp_path)
        assert main(["cell", "--config", path, *flags]) == 0
        with open(Path(out, "cell.csv"), newline="") as fh:
            rows.append([row[:-1] for row in csv.reader(fh)])  # every column but wall_ms
        hashes.append(json.loads(Path(out, "manifest.json").read_text())["config_hash"])
    assert rows[0][0][-1] == "secant_pairs" and len(rows[0]) == 9
    assert rows[0] == rows[1]
    assert hashes[0] != hashes[1]


def test_run_cell_emits_deterministic_csv(tmp_path):
    path, out = write_config(tmp_path)
    cfg = load_config(path)
    run_cell(cfg, build_manifest(cfg, "cell"))
    first = Path(out, "cell.csv").read_text().splitlines()
    run_cell(cfg, build_manifest(cfg, "cell"))
    second = Path(out, "cell.csv").read_text().splitlines()
    # byte-identical up to the wall-clock column (the only timing field)
    strip = lambda lines: ["," .join(line.split(",")[:-1]) for line in lines]
    assert strip(first) == strip(second)
    assert first[0] == (
        "nu_deg,r,seed,x0_index,m_hat,normalized,iters,grad_norm,stop_reason,batch,resets,secant_pairs,wall_ms"
    )
    assert len(first) == 1 + 2 * 2 * 2  # nu x r x seeds


def test_cell_csv_rows_read_the_solve_the_problem_gets_alone(tmp_path):
    # r = 8 and 16 cells run the two-point rule, an r = 32 cell (a 128^2 grid, one per batch) L-BFGS with 5 pairs
    text = GOOD_CONFIG.replace("r_list = 4 8", "r_list = 8 16 32").replace("nu_list = 0 p:3,4", "nu_list = 90")
    path, out = write_config(tmp_path, text)
    cfg = load_config(path)
    records = run_cell(cfg, build_manifest(cfg, "cell"))
    with open(Path(out, "cell.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records) == 6
    for rec, row in zip(records, rows, strict=True):
        item = rec.cell
        (alone,) = cell_problems_r(cfg.env, [item.nu], [item.r], [item.seed], [cfg.x0_list[0]], cfg.solver, cfg.h)
        res = alone.solve
        assert rec.m_hat == res.value and rec.normalized == res.value / item.r and rec.converged is res.converged
        assert (row["m_hat"], row["normalized"]) == (f"{rec.m_hat:.12g}", f"{rec.normalized:.12g}")
        assert (row["iters"], row["grad_norm"]) == (str(res.iters), f"{res.final_grad_norm:.12g}")
        for key in ("stop_reason", "resets", "secant_pairs"):
            assert row[key] == str(res.diagnostics[key])
        # the two seeds of r = 8 and of r = 16 share a batch; alone, each is a batch of one
        assert (row["batch"], res.diagnostics["batch"]) == ("1" if item.r == 32 else "2", 1)
        assert row["secant_pairs"] == ("5" if item.r == 32 else "0")


def test_cli_cell_and_manifest(tmp_path):
    path, out = write_config(tmp_path)
    code = main(["cell", "--config", path])
    assert code == 0
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["command"] == "cell"
    assert len(manifest["records"]) == 8
    assert all("work_id" in rec and "seed" in rec for rec in manifest["records"])
    # provenance that enters no result: the process cap of a solve_many call and the BLAS threads
    assert manifest["workers"] == usable_cpus()
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    assert manifest["blas_threads"] == {var: os.environ[var] for var in blas}


def test_manifest_to_dict_gives_what_asdict_gives(tmp_path):
    path, _ = write_config(tmp_path)
    manifest = build_manifest(load_config(path, {}), "cell")
    for seed in range(3):
        manifest.add(f"cell nu=90 r=8 seed={seed} x0=0", seed)
    assert manifest.to_dict() == dataclasses.asdict(manifest)


def test_thread_count_does_not_change_results(tmp_path):
    path, out = write_config(tmp_path)
    strip = lambda text: ["," .join(line.split(",")[:-1]) for line in text.splitlines()]
    cfg = load_config(path, {"threads": 1})
    run_cell(cfg, build_manifest(cfg, "cell"))
    serial = strip(Path(out, "cell.csv").read_text())
    cfg = load_config(path, {"threads": 4})
    run_cell(cfg, build_manifest(cfg, "cell"))
    pooled = strip(Path(out, "cell.csv").read_text())
    assert serial == pooled


def test_cli_homogenize_and_sweep(tmp_path):
    text = GOOD_CONFIG.replace("seeds = 0 1", "seeds = 0").replace("nu_list = 0 p:3,4", "nu_list = 0 90")
    path, out = write_config(tmp_path, text)
    assert main(["homogenize", "--config", path]) == 0
    payload = json.loads(Path(out, "fhom.json").read_text())
    assert set(payload["f_hom"]) == {"0", "90"}
    for entry in payload["f_hom"].values():
        assert entry["estimate"] > 0

    assert main(["sweep", "--config", path]) == 0
    lines = Path(out, "sweep.csv").read_text().splitlines()
    assert lines[0] == "nu_deg,f_hom,stderr"
    assert len(lines) == 3


def test_cli_homogenize_without_converged_solve_exits_3(tmp_path):
    text = GOOD_CONFIG.replace("max_iters = 4000", "max_iters = 1").replace("nu_list = 0 p:3,4", "nu_list = 90")
    path, out = write_config(tmp_path, text)
    with pytest.warns(UserWarning, match="non-converged"):
        assert main(["homogenize", "--config", path]) == 3
    assert not Path(out, "fhom.json").exists()


def test_cli_exit_3_still_writes_the_manifest(tmp_path):
    text = GOOD_CONFIG.replace("max_iters = 4000", "max_iters = 1").replace("nu_list = 0 p:3,4", "nu_list = 90")
    path, out = write_config(tmp_path, text)
    with pytest.warns(UserWarning, match="non-converged"):
        assert main(["homogenize", "--config", path, "--seed", "5"]) == 3
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["command"] == "homogenize"
    assert manifest["config_hash"] == load_config(path, {"seed": 5}).config_hash  # the resolved config
    assert manifest["config_hash"] != load_config(path).config_hash
    # the cell solves are recorded before the estimate fails
    assert manifest["records"] == [
        {"work_id": f"homogenize/nu=90/r={r}/x0=0", "seed": seed} for r in (4, 8) for seed in (0, 1)
    ]


def test_cell_csv_says_why_each_solve_stopped(tmp_path):
    path, out = write_config(tmp_path)
    assert main(["cell", "--config", path]) == 0
    rows = list(csv.DictReader(Path(out, "cell.csv").open()))
    assert {row["stop_reason"] for row in rows} == {"converged"}
    path, out = write_config(tmp_path, GOOD_CONFIG.replace("max_iters = 4000", "max_iters = 1"))
    assert main(["cell", "--config", path]) == 0
    rows = list(csv.DictReader(Path(out, "cell.csv").open()))
    assert len(rows) == 8
    assert {row["stop_reason"] for row in rows} == {"max_iters"}
    assert all(row["iters"] == "1" for row in rows)


def test_homogenize_records_carry_their_x0_index(tmp_path):
    text = GOOD_CONFIG.replace("seeds = 0 1", "seeds = 0").replace("nu_list = 0 p:3,4", "nu_list = 90")
    text = text.replace("x0_list = 0,0", "x0_list = 0,0 0.25,0")
    path, out = write_config(tmp_path, text)
    assert main(["homogenize", "--config", path]) == 0
    rows = Path(out, "fhom_records.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["0", "1", "0", "1"]  # r = 4, 8 each at both centers


def test_config_hash_follows_the_resolved_config(tmp_path):
    path, _ = write_config(tmp_path)
    seed3, seed4 = (load_config(path, {"seed": s}).config_hash for s in (3, 4))
    threads1, threads2 = (load_config(path, {"threads": t}).config_hash for t in (1, 2))
    assert seed3 != seed4
    assert threads1 == threads2
    assert seed3 == threads1  # the config file itself says seed = 3


@pytest.mark.parametrize(
    "old, new",
    [
        ("seeds = 0 1", "seeds = 1.7 2.2"),
        ("seeds = 0 1", "seeds = 0 1.0"),
        ("seeds = 0 1", "seeds ="),
        ("r_list = 4 8", "r_list ="),
        ("a_range = 0.9 1.1", "a_range = 0.9"),
        ("b_range = 0.0 0.05", "b_range = 0.0 0.05 0.1"),
        ("c_range = 0.9 1.1", "c_range = 0.9 1.1 1.3"),
        ("[solver]", "[solver]\nmax_iter = 3"),
        ("[solver]", "[solver]\nrestarts = 1"),
        ("[solver]", "[solver]\nnoise_scale = 0.05"),
        ("[solver]", "[solver]\nnoise_seed = 0"),
        ("[solver]", "[solvers]"),
        ("r_list = 4 8", "r_list = 4 4"),
        ("seeds = 0 1", "seeds = 0 0"),
        ("nu_list = 0 p:3,4", "nu_list = 0 p:0,1"),
        ("x0_list = 0,0", "x0_list = 0,0 0,0"),
        ("h = 0.25\nr_list = 4 8", "h = 0.15\nr_list = 8"),
        ("epsilon_list = 1.0", "epsilon_list = 0"),
        ("epsilon_list = 1.0", "epsilon_list = -0.5"),
        ("epsilon_list = 1.0", "epsilon_list = 0.5 0.5"),
        ("epsilon_list = 1.0", "epsilon_list ="),
        ("[output]", "[output]\nformat = csv"),
        ("[output]", "[output]\nformat = json"),
    ],
)
def test_config_number_lists_are_read_exactly(tmp_path, old, new):
    path, out = write_config(tmp_path, GOOD_CONFIG.replace(old, new))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["cell", "--config", path]) == 2
    assert not Path(out, "cell.csv").exists()


@pytest.mark.parametrize(
    "section, key, old, value",
    [
        ("experiment", "x0_list", "0,0", "0,nan"),
        ("experiment", "x0_list", "0,0", "0,inf"),
        ("experiment", "r_list", "4 8", "nan"),
        ("experiment", "r_list", "4 8", "inf"),
        ("experiment", "h", "0.25", "nan"),
        ("experiment", "epsilon_list", "1.0", "nan"),
        ("experiment", "nu_list", "0 p:3,4", "inf"),
        ("environment", "q", "0.05", "nan"),
        ("environment", "a_range", "0.9 1.1", "1 nan"),
        ("environment", "c_range", "0.9 1.1", "1 inf"),
        ("solver", "grad_tol", "6.25e-5", "nan"),
    ],
)
def test_every_number_a_config_sets_must_be_finite(tmp_path, capsys, section, key, old, value):
    # before, these ran (x0 nan read garbage lattice cells), died with a traceback, or exited 3
    path, out = write_config(tmp_path, GOOD_CONFIG.replace(f"{key} = {old}", f"{key} = {value}"))
    assert main(["cell", "--config", path]) == 2
    assert f"config error: bad {key} in [{section}]: " in capsys.readouterr().err
    assert not Path(out, "cell.csv").exists()


def test_format_other_than_both_on_the_command_line_exits_2(tmp_path, capsys):
    # it exited 0 and wrote only manifest.json: the one result, cell.csv, went missing
    path, out = write_config(tmp_path)
    assert main(["cell", "--config", path, "--format", "json"]) == 2
    assert "format was removed" in capsys.readouterr().err
    assert not Path(out, "cell.csv").exists()


def test_restarts_0_is_read_as_leaving_the_key_out(tmp_path):
    # the solver has no restarts; the key is accepted with the value 0 only (other values are cases above)
    bare, _ = write_config(tmp_path)
    zero, _ = write_config(tmp_path, GOOD_CONFIG.replace("[solver]", "[solver]\nrestarts = 0"), "zero.ini")
    assert load_config(zero) == load_config(bare)
    assert load_config(zero).config_hash == load_config(bare).config_hash


def test_format_both_is_read_as_leaving_the_key_out(tmp_path):
    # every command writes all of its outputs; the key and the flag are accepted with the value both only
    bare, _ = write_config(tmp_path)
    both, _ = write_config(tmp_path, GOOD_CONFIG.replace("[output]", "[output]\nformat = both"), "both.ini")
    assert load_config(both) == load_config(bare)
    assert load_config(both).config_hash == load_config(bare).config_hash
    assert load_config(bare, {"format": "both"}).config_hash == load_config(bare).config_hash


# every file each command writes besides manifest.json
OUTPUTS = {
    "cell": {"cell.csv"},
    "homogenize": {"fhom.json", "fhom_records.csv"},
    "sweep": {"fhom.json", "fhom_records.csv", "sweep.csv"},
    "sigma": {"sigma.json"},
    "verify": {"verify.json"},
}


@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_every_command_writes_all_of_its_outputs(tmp_path, command):
    text = GOOD_CONFIG.replace("seeds = 0 1", "seeds = 0").replace("nu_list = 0 p:3,4", "nu_list = 0")
    if command == "sigma":
        text = text.replace("epsilon_list = 1.0", "epsilon_list = 0.25").replace("h = 0.25", "h = 0.0625")
    path, out = write_config(tmp_path, text)
    assert "format" not in Path(path).read_text()
    assert main([command, "--config", path]) == 0
    assert {p.name for p in Path(out).iterdir()} == OUTPUTS[command] | {"manifest.json"}


def test_cli_verify_on_a_mesh_that_misses_the_suite_cuboids_exits_2(tmp_path, capsys, monkeypatch):
    # h = 0.2 divides every r, but not the side 4.5 of the parts the subadditivity check glues; the mesh is
    # checked before any property runs (before, positivity and mu-bounds solved first)
    from homlab import cell

    def no_solve(*args):
        raise AssertionError("a property solved before the mesh check")

    monkeypatch.setattr(cell, "solve_many", no_solve)
    path, out = write_config(tmp_path, GOOD_CONFIG.replace("h = 0.25", "h = 0.2"))
    assert main(["verify", "--config", path]) == 2
    assert "h = 0.2 does not divide 4.5" in capsys.readouterr().err
    assert json.loads(Path(out, "manifest.json").read_text())["command"] == "verify"
    assert not Path(out, "verify.json").exists()


def test_cli_verify_with_a_zero_epsilon_exits_2_with_a_manifest(tmp_path, capsys):
    # it died with "cube side must be positive" (exit 1), leaving no output directory
    text = GOOD_CONFIG.replace("epsilon_list = 1.0", "epsilon_list = 0")
    path, out = write_config(tmp_path, text.replace("r_list = 4 8", "r_list = 8").replace("seeds = 0 1", "seeds = 0"))
    assert main(["verify", "--config", path]) == 2
    assert "epsilon values must be positive" in capsys.readouterr().err
    assert json.loads(Path(out, "manifest.json").read_text())["command"] == "verify"
    assert not Path(out, "verify.json").exists()


def example_r8_config(tmp_path, x0_list, name):
    """configs/example.ini at r = 8, seed 0 and 90 degrees, with the given centers."""
    text = Path(__file__).parents[1].joinpath("configs", "example.ini").read_text()
    for old, new in (("r_list = 8 16 32", "r_list = 8"), ("seeds = 0 1 2 3", "seeds = 0"),
                     ("nu_list = 0 45 90 135", "nu_list = 90"), ("x0_list = 0,0", f"x0_list = {x0_list}"),
                     ("dir = out", f"dir = {tmp_path / name}")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    return str(path), tmp_path / name


@pytest.mark.parametrize("x0_list", ["0,0 1e9,1e9", "1e18,0", "0,0 3e8,3e8", "0,0 1e8,1e8"])
def test_cell_centers_beyond_2_to_the_30_exit_2_with_a_manifest(tmp_path, capsys, x0_list):
    # before, 1e9 died in the lattice-cell index (int64 overflow, exit 1), and 1e18 exited 0 with a wrong
    # converged m_hat: adjacent doubles near 8e18 are 1024 apart, against h = 0.25
    path, out = example_r8_config(tmp_path, x0_list, "far")
    far = max(abs(float(v)) for tok in x0_list.split() for v in tok.split(","))
    if 8 * far > 2**30:
        assert main(["cell", "--config", path]) == 2
        assert "x0_list puts a cell center beyond 2**30 at r = 8" in capsys.readouterr().err
        assert json.loads(Path(out, "manifest.json").read_text())["command"] == "cell"
        assert not Path(out, "cell.csv").exists()
        return
    origin, origin_out = example_r8_config(tmp_path, "0,0", "origin")
    assert main(["cell", "--config", path]) == 0 and main(["cell", "--config", origin]) == 0
    rows, alone = ([row for row in csv.DictReader(open(Path(d, "cell.csv")))] for d in (out, origin_out))
    assert {row["stop_reason"] for row in rows} == {"converged"} and len(rows) == 2
    assert rows[0]["m_hat"] == alone[0]["m_hat"]


@pytest.mark.parametrize("command", ["cell", "verify"])
def test_config_that_breaks_a_growth_bound_exits_2_with_a_manifest(tmp_path, capsys, command):
    # q = 0.25 puts -c1*q at -0.2, above b_lo = -0.25; before, cell exited 0 with one converged row
    # and verify exited 1 on a sampled counterexample
    path, out = example_r8_config(tmp_path, "0,0", "broken")
    text = Path(path).read_text()
    for old, new in (("q = 0.05", "q = 0.25"), ("b_range = -0.04 0.05", "b_range = -0.25 0.05")):
        assert old in text
        text = text.replace(old, new)
    Path(path).write_text(text)
    assert main([command, "--config", path]) == 2
    assert "breaks its growth bounds: b >= -c1*q fails at b = -0.25 (-c1*q = -0.2)" in capsys.readouterr().err
    assert json.loads(Path(out, "manifest.json").read_text())["command"] == command
    assert {p.name for p in out.iterdir()} == {"manifest.json"}


def test_cli_verify_with_an_integer_direction_of_irrational_length_runs_the_lattice_checks_along_e2(tmp_path):
    # p:1,1 is an integer vector of length sqrt(2): no lattice cuboid has it as normal.  Before, verify picked
    # it as the lattice direction and died building the suite cuboids (a traceback, exit 1, no manifest)
    from homlab import harness

    text = Path(__file__).parents[1].joinpath("configs", "example.ini").read_text()
    for old, new in (("nu_list = 0 45 90 135", "nu_list = p:1,1 0"), ("seeds = 0 1 2 3", "seeds = 0 1"),
                     ("dir = out", "dir = {out}")):
        assert old in text
        text = text.replace(old, new)
    path, out = write_config(tmp_path, text)
    assert harness._lattice_direction(load_config(path)).integer_vector == (0, 1)
    assert main(["verify", "--config", path]) == 0
    assert len(json.loads(Path(out, "verify.json").read_text())["results"]) == 9
    assert len(json.loads(Path(out, "manifest.json").read_text())["records"]) == 9


def test_cli_verify_records_every_property_in_the_manifest(tmp_path, capsys):
    path, out = write_config(tmp_path)
    assert main(["verify", "--config", path]) == 0
    # one line per property, then the note on what the values bound, once
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == UPPER_BOUND_NOTE
    assert len(lines) == 10 and all(line.startswith("[") for line in lines[:-1])
    manifest = json.loads(Path(out, "manifest.json").read_text())
    work_ids = [rec["work_id"] for rec in manifest["records"]]
    assert len(work_ids) == 9
    assert len(set(work_ids)) == 9
    assert all(w.startswith("verify/") for w in work_ids)
    assert {rec["seed"] for rec in manifest["records"]} == {3}  # [environment] seed


def test_every_exported_name_resolves():
    import importlib

    for name in ("core", "geometry", "environment", "grids", "solve", "cell", "harness"):
        module = importlib.import_module(f"homlab.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], f"homlab.{name}.__all__ names {missing}"


def test_cli_config_error_exit_code(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[experiment]\nh = 0.5\n")  # the cell problems' scale epsilon = 1 needs h <= 1/4
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert main(["cell", "--config", "/nonexistent.ini"]) == 2


def test_cli_sigma_writes_summary(tmp_path):
    text = GOOD_CONFIG.replace("epsilon_list = 1.0", "epsilon_list = 0.25").replace("h = 0.25", "h = 0.0625")
    path, out = write_config(tmp_path, text)
    assert main(["sigma", "--config", path]) == 0
    payload = json.loads(Path(out, "sigma.json").read_text())
    assert 0 < payload["sigma_minus"] <= payload["sigma_plus"]
    assert payload["stop_reason"] == {"minus": {"0.25": "converged"}, "plus": {"0.25": "converged"}}
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["records"] == [
        {"work_id": "sigma/minus/eps=0.25", "seed": 3},
        {"work_id": "sigma/plus/eps=0.25", "seed": 3},
    ]


def test_cli_sigma_with_a_scale_beyond_the_slab_bound_exits_2_with_a_manifest(tmp_path, capsys, monkeypatch):
    # eps = 1e-5 puts 800000 nodes on the slab axis: its dense axis basis asked for 4.66 TiB and died (exit 1)
    from homlab import cell

    def no_solve(problems, cfg):
        raise AssertionError(f"scale {problems[0][2].epsilon} was solved")

    monkeypatch.setattr(cell, "solve_many", no_solve)
    text = Path(__file__).parents[1].joinpath("configs", "sigma.ini").read_text()
    for old, new in (("epsilon_list = 0.25 0.125 0.0625", "epsilon_list = 0.0625 1e-5"), ("dir = out", "dir = {out}")):
        assert old in text
        text = text.replace(old, new)
    path, out = write_config(tmp_path, text)
    assert main(["sigma", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "scale 1e-05 puts 800000 nodes on the unit slab axis at h = 1.25e-06, more than MAX_SLAB_NODES = 2048" in err
    assert json.loads(Path(out, "manifest.json").read_text())["command"] == "sigma"
    assert {p.name for p in Path(out).iterdir()} == {"manifest.json"}


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("q = 0.05", "q = 0.5", "minus variant requires q <= 0.25 (got 0.5)"),
        ("epsilon_list = 0.25 0.125 0.0625", "epsilon_list = 0.25 1.5",
         "sigma needs scales resolvable on the unit slab: scales must lie in (0, 1]"),
        # h = eps/8 does not divide the unit slab at 0.3 or 0.75: before, the 0.125 slab was solved and then
        # the mesh raised a bare ValueError (a traceback, exit 1 and no manifest)
        ("epsilon_list = 0.25 0.125 0.0625", "epsilon_list = 0.125 0.3",
         "sigma needs scales resolvable on the unit slab: spacing 0.0375 does not divide side 1.0"),
        ("epsilon_list = 0.25 0.125 0.0625", "epsilon_list = 0.125 0.75",
         "sigma needs scales resolvable on the unit slab: spacing 0.09375 does not divide side 1.0"),
    ],
    ids=["q-bound", "scale", "mesh-0.3", "mesh-0.75"],
)
def test_cli_sigma_names_what_it_rejects(tmp_path, capsys, monkeypatch, old, new, message):
    # the q bound was reported as a scale the unit slab cannot resolve, and only after the plus slabs were solved
    from homlab import cell

    def no_solve(problems, cfg):
        raise AssertionError(f"scale {problems[0][2].epsilon} was solved")

    monkeypatch.setattr(cell, "solve_many", no_solve)
    text = Path(__file__).parents[1].joinpath("configs", "sigma.ini").read_text()
    for was, now in ((old, new), ("dir = out", "dir = {out}")):
        assert was in text
        text = text.replace(was, now)
    path, out = write_config(tmp_path, text)
    assert main(["sigma", "--config", path]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert {p.name for p in Path(out).iterdir()} == {"manifest.json"}


@pytest.mark.parametrize(
    "command, config, old, new, message",
    [
        ("homogenize", "example.ini", "nu_list = 0 45 90 135", "nu_list = 10 10.0000001",
         "nu_list entries 10.0 and 10.0000001 both print as 10"),
        ("cell", "example.ini", "r_list = 8 16 32", "r_list = 8 8.0000001",
         "r_list entries 8.0 and 8.0000001 both print as 8"),
        ("sigma", "sigma.ini", "epsilon_list = 0.25 0.125 0.0625", "epsilon_list = 0.125 0.1250000001",
         "epsilon_list entries 0.125 and 0.1250000001 both print as 0.125"),
    ],
    ids=["homogenize-nu", "cell-r", "sigma-eps"],
)
def test_entries_that_print_as_one_key_exit_2_with_a_manifest(tmp_path, capsys, command, config, old, new, message):
    # before, homogenize exited 0 with one fhom.json key for two directions and a work id listed twice,
    # and sigma listed each of its ids twice
    text = Path(__file__).parents[1].joinpath("configs", config).read_text()
    assert old in text
    for was, now in ((old, new), ("r_list = 8 16 32", "r_list = 8"), ("seeds = 0 1 2 3", "seeds = 0"),
                     ("dir = out", "dir = {out}")):
        text = text.replace(was, now)
    path, out = write_config(tmp_path, text)
    assert main([command, "--config", path]) == 2
    assert message in capsys.readouterr().err
    assert json.loads(Path(out, "manifest.json").read_text())["command"] == command
    assert {p.name for p in Path(out).iterdir()} == {"manifest.json"}


@pytest.mark.parametrize("sub", ["", "sub"], ids=["existing-file", "below-a-file"])
def test_an_output_directory_that_cannot_be_created_exits_2_before_any_solve(tmp_path, capsys, monkeypatch, sub):
    # before, cell solved and then died in write_json's makedirs with a traceback (exit 1)
    from homlab import cell

    def no_solve(*args):
        raise AssertionError("a cell was solved")

    monkeypatch.setattr(cell, "solve_many", no_solve)
    path, _ = example_r8_config(tmp_path, "0,0", "unused")
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out = os.path.join(blocker, sub) if sub else str(blocker)
    assert main(["cell", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    reason = "Not a directory" if sub else "File exists"
    assert err == f"cannot write outputs to {out}: {reason}\n"
    assert blocker.read_text() == ""


EXAMPLE_IDS = [
    (nu, r, seed) for nu in ("0", "45", "90", "135") for r in ("8", "16", "32") for seed in ("0", "1", "2", "3")
]


@pytest.mark.parametrize(
    "edits, ids",
    [
        ((), [(f"cell/nu={nu}/r={r}/x0=0", (nu, r, seed, "0")) for nu, r, seed in EXAMPLE_IDS]),
        (
            (("r_list = 8 16 32", "r_list = 8.5"), ("seeds = 0 1 2 3", "seeds = 0 1"),
             ("nu_list = 0 45 90 135", "nu_list = -30"), ("x0_list = 0,0", "x0_list = 0,0 0.25,-0.5")),
            [
                ("cell/nu=330/r=8.5/x0=0", ("330", "8.5", "0", "0")),
                ("cell/nu=330/r=8.5/x0=1", ("330", "8.5", "0", "1")),
                ("cell/nu=330/r=8.5/x0=0", ("330", "8.5", "1", "0")),
                ("cell/nu=330/r=8.5/x0=1", ("330", "8.5", "1", "1")),
            ],
        ),
    ],
    ids=["example", "r8.5-two-centers-minus-30"],
)
def test_cell_work_ids_and_csv_keys_are_pinned(tmp_path, edits, ids):
    # a renamed or reformatted work id or key column fails here: the manifest and cell.csv name each cell
    text = Path(__file__).parents[1].joinpath("configs", "example.ini").read_text()
    for old, new in edits + (("dir = out", "dir = {out}"),):
        assert old in text
        text = text.replace(old, new)
    path, out = write_config(tmp_path, text)
    assert main(["cell", "--config", path]) == 0
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["records"] == [{"work_id": work_id, "seed": int(key[2])} for work_id, key in ids]
    rows = list(csv.DictReader(Path(out, "cell.csv").open()))
    assert [(row["nu_deg"], row["r"], row["seed"], row["x0_index"]) for row in rows] == [key for _, key in ids]


def test_property_suite_small_config_passes(tmp_path):
    path, out = write_config(tmp_path)
    cfg = load_config(path)
    manifest = build_manifest(cfg, "verify")
    results = run_verify(cfg, manifest)
    assert manifest.records == [{"work_id": f"verify/{r.name}", "seed": 3} for r in results]
    rows = json.loads(Path(out, "verify.json").read_text())["results"]
    assert rows == [{"name": r.name, "passed": r.passed, "detail": r.detail, "informational": r.informational}
                    for r in results]
    names = {r.name for r in results}
    assert {
        "gradient-consistency",
        "growth-sandwich",
        "growth-pointwise",
        "positivity",
        "mu-bounds",
        "subadditivity",
        "stationarity",
        "bounds",
        "monotonicity",
    } <= names
    failures = [r for r in results if not r.passed and not r.informational]
    assert failures == []


def test_gradient_consistency_sees_a_1e_7_error_in_the_well_derivative(tmp_path, monkeypatch):
    # on random h = 1/8 fields 2 Ku dominates the gradient, so the random lines read such an error under the
    # bound (4.3e-11 on configs/example.ini); on a constant field Ku = 0 and the per-node probe reads it whole
    from homlab import harness
    from homlab.core import DoubleWell
    from homlab.environment import make_environment

    cfg = load_config(write_config(tmp_path)[0])
    env = make_environment(cfg.env)
    value_and_derivative = DoubleWell.value_and_derivative

    def readings():
        passed, detail, _ = harness._prop_gradient(cfg, env, {})
        match = re.fullmatch(r"max rel err (\S+) on random lines, (\S+) per node on constant fields", detail)
        lines, nodes = match.groups()
        return passed, float(lines), float(nodes)

    passed, lines, nodes = readings()
    assert passed and lines < 1e-9 and nodes < 1e-9

    def scaled(self, s):
        w, dw = value_and_derivative(self, s)
        return w, dw * (1.0 + 1e-7)

    monkeypatch.setattr(DoubleWell, "value_and_derivative", scaled)
    passed, lines, nodes = readings()
    assert not passed and lines < 1e-9 and nodes == pytest.approx(1e-7, rel=0.01)


def test_property_suite_reports_positivity_outside_regime(tmp_path):
    text = GOOD_CONFIG.replace("q = 0.05", "q = 50.0").replace("b_range = 0.0 0.05", "b_range = 0.0 1.0")
    path, _ = write_config(tmp_path, text)
    cfg = load_config(path)
    result = next(r for r in run_verify(cfg, build_manifest(cfg, "verify")) if r.name == "positivity")
    assert result.informational
    assert "outside regime" in result.detail


def test_property_suite_on_the_n1_sigma_config_skips_the_2d_checks(tmp_path, monkeypatch):
    from homlab import cell

    scales = []  # the epsilon of every problem, one list per solve_many call

    def counting(problems, cfg):
        scales.append([params.epsilon for _, _, params in problems])
        return solve_many(problems, cfg)

    monkeypatch.setattr(cell, "solve_many", counting)
    text = Path(__file__).parents[1].joinpath("configs", "sigma.ini").read_text().replace("dir = out", "dir = {out}")
    path, _ = write_config(tmp_path, text)
    cfg = load_config(path)
    results = run_verify(cfg, build_manifest(cfg, "verify"))
    # monotonicity solves its rho = 4, 8 and 16 eps cells at eps = 0.0625 in one call; before, in three
    assert [call for call in scales if 0.0625 in call] == [[0.0625] * 3]
    skipped = [(r.name, r.passed, r.informational) for r in results if r.detail == "skipped for n=1"]
    assert skipped == [(name, True, True) for name in ("mu-bounds", "subadditivity", "stationarity")]
    assert [r.name for r in results if r.passed and not r.informational] == [
        "gradient-consistency", "growth-sandwich", "growth-pointwise", "positivity", "bounds", "monotonicity",
    ]


def example_verify_config(tmp_path, max_iters):
    """configs/example.ini with the given max_iters."""
    text = Path(__file__).parents[1].joinpath("configs", "example.ini").read_text()
    for old, new in (("max_iters = 25000", f"max_iters = {max_iters}"), ("dir = out", "dir = {out}")):
        assert old in text
        text = text.replace(old, new)
    return write_config(tmp_path, text)


def test_cli_verify_fails_a_property_that_read_an_unfinished_solve(tmp_path, capsys):
    # at max_iters = 40 both r = 32 cells of bounds' six stop early; before, bounds passed on an f_hom
    # fitted without them (2.375 against 1.913 at 25000) and verify exited 0
    path, out = example_verify_config(tmp_path, 40)
    with pytest.warns(UserWarning, match="non-converged"):
        assert main(["verify", "--config", path]) == 1
    assert "[FAIL] bounds: 1.563 <= 2.375 <= 2.738; 2 of 10 solves stopped at max_iters" in capsys.readouterr().out
    rows = {r["name"]: r for r in json.loads(Path(out, "verify.json").read_text())["results"]}
    assert [name for name, r in rows.items() if not r["passed"]] == ["bounds"]
    assert len(json.loads(Path(out, "manifest.json").read_text())["records"]) == 9


def test_cli_verify_keeps_every_row_when_a_property_raises(tmp_path, capsys):
    # at max_iters = 5 no cell of bounds converges, so its estimate raises; before, verify printed no line
    # and wrote no verify.json and a manifest with 0 records
    path, out = example_verify_config(tmp_path, 5)
    with pytest.warns(UserWarning, match="non-converged"):
        assert main(["verify", "--config", path]) == 3
    captured = capsys.readouterr()
    message = "no converged cell solve for nu = (0.0, 1.0) over seeds (0, 1)"
    assert captured.err.endswith(f"no estimate: {message}\n")
    lines = captured.out.splitlines()
    assert len(lines) == 10 and lines[-1] == UPPER_BOUND_NOTE
    assert f"[FAIL] bounds: {message}" in lines
    mu_bounds = "(0.0, 2.0): 46.96 <= 166; (0.5, 1.5): 36.83 <= 83.01; 2 of 2 solves stopped at max_iters"
    assert f"[FAIL] mu-bounds: {mu_bounds}" in lines
    rows = json.loads(Path(out, "verify.json").read_text())["results"]
    assert len(rows) == 9 and {r["name"]: r["detail"] for r in rows}["bounds"] == message
    assert len(json.loads(Path(out, "manifest.json").read_text())["records"]) == 9


def test_cli_import_and_cell_solve_load_no_scipy():
    # scipy is a test-only extra: importing it would add to start-up time and memory
    import os
    import subprocess
    import sys

    import homlab

    code = (
        "import sys\n"
        "import homlab.cli\n"
        "from homlab.cell import cell_problems_r\n"
        "from homlab.environment import EnvironmentSpec\n"
        "from homlab.geometry import Direction\n"
        "from homlab.solve import SolverConfig\n"
        "spec = EnvironmentSpec(kind='checkerboard', b_range=(-0.04, 0.05))\n"
        "cell_problems_r(spec, [Direction.from_integers(0, 1)], [8], [0], [(0, 0)], SolverConfig(), 0.25)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(sorted(m for m in sys.modules if m in ('hashlib', '_hashlib')))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    src = str(Path(homlab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    # nor hashlib, which loads OpenSSL: config_hash takes CPython's builtin sha256; nor a
    # process pool module: solve_many forks its batch workers with os.fork
    assert out.stdout.split() == ["[]", "[]", "[]"]


@pytest.mark.parametrize("given, expected", [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])])
def test_importing_homlab_defaults_blas_to_one_thread_unless_set(given, expected):
    import os
    import subprocess
    import sys

    import homlab

    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    # this process imported homlab already, so its own environment holds the defaults
    env = {k: v for k, v in os.environ.items() if k not in names}
    env.update(given, PYTHONPATH=str(Path(homlab.__file__).resolve().parents[1]))
    code = f"import os, homlab.cli\nprint(*(os.environ.get(k) for k in {names!r}))\n"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == expected


@pytest.mark.parametrize(
    "numpy_first, expected", [(False, ["1", "1", "1"]), (True, [None, None, None])], ids=["homlab-first", "numpy-first"]
)
def test_the_manifest_records_blas_threads_numpy_read_in_either_import_order(tmp_path, numpy_first, expected):
    # numpy's BLAS reads the thread variables when numpy loads: after that, homlab's defaults come too late
    import os
    import subprocess
    import sys

    import homlab

    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = str(Path(homlab.__file__).resolve().parents[1])
    path, out = write_config(tmp_path)
    code = (
        ("import numpy\n" if numpy_first else "")
        + "import json, sys\n"
        + "from homlab.harness import build_manifest, load_config\n"
        + "manifest = build_manifest(load_config(sys.argv[1]), 'cell')\n"
        + "print(json.dumps([manifest.config_hash, manifest.blas_threads]))\n"
    )
    run = subprocess.run([sys.executable, "-c", code, path], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    config_hash, blas_threads = json.loads(run.stdout)
    assert blas_threads == dict(zip(names, expected))
    assert config_hash == load_config(path).config_hash  # provenance that enters no result


def test_numpy_imported_first_forks_no_worker_and_changes_no_row(tmp_path):
    # numpy's BLAS read no thread variable, so its pool (one thread per core) would spin in every worker:
    # with two workers, these 8 framed r = 32 cells took 1.6-13 s on a 2-vCPU VM against 0.6 s for `python -m`.
    # The rows are compared bit for bit, which relies on BLAS threads changing no bit (README "Reproducibility
    # notes": measured equal at 2 threads on a 2-vCPU VM; more threads are unverified)
    import os
    import subprocess
    import sys

    import homlab

    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = str(Path(homlab.__file__).resolve().parents[1])
    text = Path(__file__).parents[1].joinpath("configs", "example.ini").read_text()
    for old, new in (("r_list = 8 16 32", "r_list = 32"), ("seeds = 0 1 2 3", "seeds = 0 1 2 3 4 5 6 7"),
                     ("nu_list = 0 45 90 135", "nu_list = 90"), ("dir = out", "dir = {out}")):
        text = text.replace(old, new)
    path, _ = write_config(tmp_path, text)
    first = str(tmp_path / "numpy_first")
    code = (
        "import sys\nimport numpy\nimport homlab.cli\n"
        "sys.exit(homlab.cli.main(['cell', '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
    )
    for argv in ([sys.executable, "-c", code, path, first], [sys.executable, "-m", "homlab", "cell", "--config", path]):
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
    manifest = json.loads(Path(first, "manifest.json").read_text())
    assert manifest["workers"] == 1 and manifest["blas_threads"] == dict.fromkeys(names)
    rows = [
        [{k: v for k, v in row.items() if k != "wall_ms"} for row in csv.DictReader(open(Path(d, "cell.csv")))]
        for d in (first, tmp_path / "out")
    ]
    assert len(rows[0]) == 8 and {row["stop_reason"] for row in rows[0]} == {"converged"}
    assert rows[0] == rows[1]


@pytest.mark.parametrize("command", ["cell", "homogenize", "sweep", "verify"])
def test_cell_commands_check_h_against_the_unit_scale(tmp_path, command):
    # h = 0.5 resolves epsilon_list = 2.0, but these commands solve cells at epsilon = 1
    text = GOOD_CONFIG
    for old, new in (
        ("h = 0.25", "h = 0.5"),
        ("epsilon_list = 1.0", "epsilon_list = 2.0"),
        ("r_list = 4 8", "r_list = 8"),
        ("seeds = 0 1", "seeds = 0"),
        ("nu_list = 0 p:3,4", "nu_list = 0"),
    ):
        text = text.replace(old, new)
    path, out = write_config(tmp_path, text)
    assert load_config(path).h == 0.5
    assert main([command, "--config", path]) == 2
    assert json.loads(Path(out, "manifest.json").read_text())["command"] == command
