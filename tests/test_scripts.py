import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sweep_mlp_hidden_prints_one_row_per_width():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_mlp_hidden.py"),
         "--widths", "4", "--epochs", "3"],
        capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "table=binary_ethanol seed=42 epochs=3"
    assert lines[1].split() == ["hidden", "rmse_ppm", "mae_ppm", "r2", "epochs_run"]
    rows = [line.split() for line in lines[2:]]
    assert len(rows) == 1
    assert rows[0][0] == "4" and rows[0][-1] == "3"
