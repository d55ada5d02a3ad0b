import csv
import json
from pathlib import Path

import pytest

from homlab.cli import main
from homlab.harness import ConfigError, load_config, run_cell, run_property_suite

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


def test_run_cell_emits_deterministic_csv(tmp_path):
    path, out = write_config(tmp_path)
    cfg = load_config(path)
    run_cell(cfg)
    first = Path(out, "cell.csv").read_text().splitlines()
    run_cell(cfg)
    second = Path(out, "cell.csv").read_text().splitlines()
    # byte-identical up to the wall-clock column (the only timing field)
    strip = lambda lines: ["," .join(line.split(",")[:-1]) for line in lines]
    assert strip(first) == strip(second)
    assert first[0] == "nu_deg,r,seed,x0_index,m_hat,normalized,iters,grad_norm,stop_reason,wall_ms"
    assert len(first) == 1 + 2 * 2 * 2  # nu x r x seeds


def test_cli_cell_and_manifest(tmp_path):
    path, out = write_config(tmp_path)
    code = main(["cell", "--config", path])
    assert code == 0
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["command"] == "cell"
    assert len(manifest["records"]) == 8
    assert all("work_id" in rec and "seed" in rec for rec in manifest["records"])


def test_thread_count_does_not_change_results(tmp_path):
    path, out = write_config(tmp_path)
    strip = lambda text: ["," .join(line.split(",")[:-1]) for line in text.splitlines()]
    cfg = load_config(path, {"threads": 1})
    run_cell(cfg)
    serial = strip(Path(out, "cell.csv").read_text())
    cfg = load_config(path, {"threads": 4})
    run_cell(cfg)
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


def test_cli_verify_on_a_mesh_that_misses_the_suite_cuboids_exits_2(tmp_path, capsys):
    # h = 0.2 divides every r, but not the side 4.5 of the parts the subadditivity check glues
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


def test_cli_verify_records_every_property_in_the_manifest(tmp_path):
    path, out = write_config(tmp_path)
    assert main(["verify", "--config", path]) == 0
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


def test_property_suite_small_config_passes(tmp_path):
    path, _ = write_config(tmp_path)
    cfg = load_config(path)
    results = run_property_suite(cfg)
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


def test_property_suite_reports_positivity_outside_regime(tmp_path):
    text = GOOD_CONFIG.replace("q = 0.05", "q = 50.0").replace("b_range = 0.0 0.05", "b_range = 0.0 1.0")
    path, _ = write_config(tmp_path, text)
    cfg = load_config(path)
    result = next(r for r in run_property_suite(cfg) if r.name == "positivity")
    assert result.informational
    assert "outside regime" in result.detail


def test_cli_import_and_cell_solve_load_no_scipy():
    # scipy is a test-only extra: importing it would add to start-up time and memory
    import os
    import subprocess
    import sys

    import homlab

    code = (
        "import sys\n"
        "import homlab.cli\n"
        "from homlab.cell import cell_problem_r\n"
        "from homlab.environment import EnvironmentSpec, make_environment\n"
        "from homlab.geometry import Direction\n"
        "from homlab.solve import SolverConfig\n"
        "env = make_environment(EnvironmentSpec(kind='checkerboard', b_range=(-0.04, 0.05)))\n"
        "cell_problem_r(env, Direction.from_integers(0, 1), 8, (0, 0), SolverConfig(), 0.25)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(homlab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


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
