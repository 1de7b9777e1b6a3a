import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=300)


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return run_python(str(ROOT / "scripts" / name), *args)


def test_sweep_mlp_hidden_prints_one_row_per_width(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("mlp_epochs = 3\n")
    run = run_script("sweep_mlp_hidden.py", "--widths", "4", "--config", str(conf))
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "table=binary_ethanol seed=42 epochs=3"
    assert lines[1].split() == ["hidden", "rmse_ppm", "mae_ppm", "r2", "epochs_run"]
    rows = [line.split() for line in lines[2:]]
    assert len(rows) == 1
    assert rows[0][0] == "4" and rows[0][-1] == "3"


def test_run_all_tables_prints_one_row_per_table(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("mlp_epochs = 3\nnoise_sigma = 0.01\n")
    out = tmp_path / "results"
    run = run_script("run_all_tables.py", "--config", str(conf), "--out", str(out))
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "seed=42 features=pca noise=0.01"
    assert lines[1].split() == ["table", "accuracy", "rmse_ppm", "mae_ppm", "r2", "time_s"]
    assert [line.split()[0] for line in lines[2:]] == [
        "binary_ethanol", "binary_methanol", "ternary"]
    for table in ("binary_ethanol", "binary_methanol", "ternary"):
        echo = (out / table / "regression" / "metrics.csv").read_text()
        assert "# mlp_epochs = 3\n" in echo and "# noise_sigma = 0.01\n" in echo
        assert (out / table / "metrics.csv").exists()


@pytest.mark.parametrize("name, config, args, message", [
    ("sweep_mlp_hidden.py", "svm_c = -1", (),
     "[stage=sweep_mlp_hidden] c_penalty must be > 0"),
    ("sweep_mlp_hidden.py", "mlp_epochs = 3", ("--widths", "4,0"),
     "[stage=sweep_mlp_hidden] layer sizes must be >= 1"),
    # a width is read as a config file's mlp_hidden, by the integer rule
    ("sweep_mlp_hidden.py", "mlp_epochs = 3", ("--widths", "1_6"),
     "[stage=sweep_mlp_hidden] config key 'mlp_hidden': "
     "invalid literal for int() with base 10: '1_6'"),
    ("run_all_tables.py", "svm_c = -1", (),
     "[stage=run_all_tables] c_penalty must be > 0"),
], ids=["sweep_mlp_hidden", "sweep_mlp_hidden-widths", "sweep_mlp_hidden-widths-spelling",
        "run_all_tables"])
def test_bad_setting_ends_in_a_stage_error(tmp_path, name, config, args, message):
    conf = tmp_path / "run.conf"
    conf.write_text(config + "\n")
    run = run_script(name, "--config", str(conf), *args)
    assert run.returncode == 2
    assert run.stderr == f"error {message}\n" and run.stdout == ""


SEED_ARGVS = {
    "simulate": ("-m", "enose", "simulate", "--table", "ternary", "--out", "sessions"),
    "train-mlp": ("-m", "enose", "train-mlp", "--in", "features.csv", "--model", "out.mlp"),
    "bench": ("-m", "enose", "bench", "--table", "ternary", "--out", "results"),
    "run_all_tables": (str(ROOT / "scripts" / "run_all_tables.py"),),
    "sweep_mlp_hidden": (str(ROOT / "scripts" / "sweep_mlp_hidden.py"),),
}


# a seed is an integer >= 0, spelt as a file's integers are
@pytest.mark.parametrize("argv, seed, message", [
    *[(argv, "-1", "must be >= 0, got -1") for argv in SEED_ARGVS.values()],
    *[(argv, "1_0", "invalid parse_seed value: '1_0'") for argv in SEED_ARGVS.values()],
], ids=[*SEED_ARGVS, *(f"{name}-1_0" for name in SEED_ARGVS)])
def test_negative_seed_is_a_usage_error(tmp_path, argv, seed, message):
    run = run_python(*argv, "--seed", seed, cwd=tmp_path)
    assert run.returncode == 2
    assert f"error: argument --seed: {message}" in run.stderr
    assert "Traceback" not in run.stderr and not any(tmp_path.iterdir())
