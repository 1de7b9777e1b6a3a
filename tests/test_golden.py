"""Golden sha256 digests of every artifact the CLI writes for fixed seeds.

Criterion 09 checks that two runs of the same code agree; these digests
check that a refactor reproduces the bytes the code wrote before it.  They
cover the synthetic route (`bench`, PCA classification and MLP regression),
`simulate --per-row`, the lab route (`ingest` then `preprocess`) on a
small hand-written dirty stream, and the model files `train-svm` and
`train-mlp` save.  The floating-point artifacts depend on
numpy's arithmetic; the digests were recorded with numpy 2.4 on x86-64.
"""

import hashlib

import numpy as np

from enose.cli import main
from enose.features import write_features_csv

from test_modelio import training_data

SEED = "42"

BENCH_PCA_TERNARY = {
    "classification.svg":
        "2d9f949c14753948db1ac2dc93957cb8c0b415522b599099b89890270dca45b2",
    "features_test.csv":
        "eeea734146c8b7efec74ebd8ce51b68675b26abd088e127cf97a5f916cd2388d",
    "features_train.csv":
        "67d7a0ba1a125624dd5ffe5e6910458af80e984a98af373287dc36cb4e26473b",
    "metrics.csv":
        "60fbeed04cc63fd5448cbcec83c4a96594c3f548941ef80bac4a67994d9d8d51",
    "predictions.csv":
        "44662b0f1f44130d47f9c665330f54e38015da796f118e719d9cef7e24e5ab33",
    "scatter.svg":
        "36a08ac482ef6c81a6c1e6c8e4a6fbad714acfdeea88fb1051d6d9b4faf1396a",
}

BENCH_REGRESSION_BINARY_ETHANOL = {
    "features_test.csv":
        "6ae6b97ac0e9a2b9a0741fdbdbdd3b963bbf1125a3016d9cad89f65b1370cd8d",
    "features_train.csv":
        "e735d7b22a16165a5312339f902d7d3c3edbe4b7a428c9c0f6766a45a6874602",
    "loss_trace.csv":
        "6395ca8463e683be11499915e7eac3eac187aab1221b0943c845fc9b6dccb39a",
    "metrics.csv":
        "fed5acc9234ab2081097ce4a9b409edff3a6ca66e1a1df108483958d1c3a7c6f",
    "predictions.csv":
        "0c788e8ce978345fb02e3761bb39412b810fe1f5d7afc3fd2fc0c81fa7d3b211",
}

# 16 rows x 2 sessions, each a CSV plus its .meta sidecar: one digest over
# the sorted "name sha256" manifest of all 64 files.
SIMULATE_BINARY_METHANOL_MANIFEST = (
    "53d734122bd83752357bb841b111f0e241daba7f21fb0f2ce719a94baf2c726f")
SIMULATE_FILE_COUNT = 64

INGEST_PREPROCESS = {
    "processed.csv":
        "0078403870fa90f5faf41db8cc032d13b6ebbf129dd5deb9ab5312736335e817",
    "processed.meta":
        "43b7e828fcf92e92a7ecf976239c346ba9c4b27bc49e844f140280cf1524f002",
    "session.csv":
        "df6454868a5f0718ebd71003a83f0e0da3cdb68eefeb15d8a52c59f0ffc40b29",
    "session.meta":
        "43b7e828fcf92e92a7ecf976239c346ba9c4b27bc49e844f140280cf1524f002",
}

# A pca-svm and a kpca-mlp chain between them hold every section type.
MODEL_FILES = {
    "kpca-mlp.model":
        "fcee8034449a8393dc61cb73a8e21c3213e79bd02ea308c4e454e8718a3f0c12",
    "pca-svm.model":
        "2ca3e3ecc805810b8a96cbc23875dd4e548a9bc4d40031aa3241b7bf7f2238cc",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(directory) -> dict[str, str]:
    return {p.name: _sha256(p) for p in sorted(directory.iterdir())}


def _manifest(digests: dict[str, str]) -> str:
    text = "".join(f"{name} {digest}\n" for name, digest in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def dirty_stream() -> list[str]:
    """30 frames at 10 Hz with one blank field and one malformed line."""
    lines = [f"{i * 100},{1200 + 7 * i},{2100 - 5 * i},{900 + (i * i) % 13},{3000 + 11 * i}"
             for i in range(30)]
    lines[8] = "800,1256,2060,,3088"          # dropped sample, imputed
    lines[17] = "1700,1319,n/a,903,3187"      # malformed, skipped
    return lines


def test_bench_pca_ternary(tmp_path):
    out = tmp_path / "out"
    assert main(["bench", "--table", "ternary", "--seed", SEED, "--out", str(out)]) == 0
    assert _digests(out) == BENCH_PCA_TERNARY


def test_bench_regression_binary_ethanol(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text("mlp_epochs = 5\n")
    out = tmp_path / "out"
    assert main(["bench", "--table", "binary-ethanol", "--seed", SEED, "--regression",
                 "--config", str(config), "--out", str(out)]) == 0
    assert _digests(out) == BENCH_REGRESSION_BINARY_ETHANOL


def test_simulate_per_row(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--table", "binary-methanol", "--per-row", "2",
                 "--seed", SEED, "--out", str(out)]) == 0
    digests = _digests(out)
    assert len(digests) == SIMULATE_FILE_COUNT
    assert _manifest(digests) == SIMULATE_BINARY_METHANOL_MANIFEST


def test_ingest_then_preprocess_dirty_stream(tmp_path):
    raw = tmp_path / "frames.txt"
    raw.write_text("\n".join(dirty_stream()) + "\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["ingest", "--in", str(raw), "--out", str(out / "session.csv"),
                 "--label", "2", "--ethanol", "40", "--methanol", "2.5"]) == 0
    assert main(["preprocess", "--in", str(out / "session.csv"),
                 "--out", str(out / "processed.csv")]) == 0
    assert _digests(out) == INGEST_PREPROCESS


def test_train_svm_and_train_mlp_model_files(tmp_path):
    x, y, t = training_data()     # column 2 constant: covers the `constant` flags
    feat = tmp_path / "features.csv"
    write_features_csv(feat, x, y, np.column_stack([t, t / 10, np.zeros_like(t)]))
    out = tmp_path / "out"
    out.mkdir()
    pca, kpca = tmp_path / "pca.cfg", tmp_path / "kpca.cfg"
    pca.write_text("features = pca\n")
    kpca.write_text("features = kpca\nmlp_epochs = 5\n")
    assert main(["train-svm", "--in", str(feat), "--config", str(pca),
                 "--model", str(out / "pca-svm.model")]) == 0
    assert main(["train-mlp", "--in", str(feat), "--config", str(kpca), "--seed", SEED,
                 "--model", str(out / "kpca-mlp.model")]) == 0
    assert _digests(out) == MODEL_FILES
