import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


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
