"""Output checks: invariants that hold at any seed, and the recorded reference.

`collect_*` read what a run wrote into a JSON-ready dict of outputs;
`check_*` return a list of error strings (empty when the run is correct).
The reference holds the outputs of the parent commit at seeds 42 and 7.
Labels must match it exactly and floats within the tolerances below, not
bit for bit: a correct top-k KPCA solver or a reordered MLP loop may move
the last digits.  Byte-identical artifacts are only counted.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from streams import Stream, processed_expected, read_table

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEEDS = (42, 7)

SCORE_RTOL = 1e-6       # KPCA/PCA scores, relative to the column's largest magnitude
METRIC_ATOL = 1e-9      # accuracy
MLP_RTOL = 1e-4         # rmse/mae/r2 and predictions, relative to the target range
PROCESSED_ATOL = 1e-9   # volts, processed channel values
SUMMARY_ATOL = 1e-6     # per-channel sums over a stream's ~700 processed values

ACCURACY_FLOOR = 0.7    # any seed; chance level on the ternary table is 1/3
RMSE_CEILING_PPM = 30.0  # any seed; targets span 0..100 ppm

BENCH_ARTIFACTS = ("metrics.csv", "predictions.csv", "features_train.csv",
                   "features_test.csv", "scatter.svg", "classification.svg",
                   "loss_trace.csv")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_for(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}-{seed}.json"
    return json.loads(path.read_text()) if path.exists() else None


def _read_metrics(path: Path) -> dict[str, str]:
    rows = [line.split(",", 1) for line in path.read_text().splitlines()
            if line and not line.startswith("#") and line != "metric,value"]
    return dict(rows)


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:] if line]


def collect_bench(out: Path, regression: bool) -> dict:
    metrics = _read_metrics(out / "metrics.csv")
    rows = _csv_rows(out / "predictions.csv")
    result = {
        "artifacts": {name: sha256(out / name) for name in BENCH_ARTIFACTS
                      if (out / name).exists()},
        "n_train": len(_csv_rows(out / "features_train.csv")),
        "n_test": len(_csv_rows(out / "features_test.csv")),
    }
    if regression:
        result.update(
            y_true=[float(r[1]) for r in rows], y_pred=[float(r[2]) for r in rows],
            rmse_ppm=float(metrics["rmse_ppm"]), mae_ppm=float(metrics["mae_ppm"]),
            r2=float(metrics["r2"]),
            epochs=len(_csv_rows(out / "loss_trace.csv")))
    else:
        result.update(
            y_true=[int(r[1]) for r in rows], y_pred=[int(r[2]) for r in rows],
            scores=[[float(r[3]), float(r[4])] for r in rows],
            accuracy=float(metrics["accuracy"]))
    return result


def check_bench(outputs: dict, regression: bool, n_train: int, n_test: int,
                ref: dict | None) -> list[str]:
    errors = []
    if (outputs["n_train"], outputs["n_test"]) != (n_train, n_test):
        errors.append(f"feature files hold {outputs['n_train']}+{outputs['n_test']} "
                      f"rows, expected {n_train}+{n_test}")
    y_true, y_pred = np.array(outputs["y_true"]), np.array(outputs["y_pred"])
    if y_true.size != n_test:
        errors.append(f"predictions.csv has {y_true.size} rows, expected {n_test}")
        return errors
    if regression:
        rmse = float(np.sqrt(np.mean((y_pred - y_true) ** 2)))
        if not abs(rmse - outputs["rmse_ppm"]) <= 1e-9 * max(1.0, rmse):
            errors.append(f"rmse_ppm {outputs['rmse_ppm']!r} disagrees with predictions ({rmse!r})")
        if not outputs["rmse_ppm"] <= RMSE_CEILING_PPM:
            errors.append(f"rmse_ppm {outputs['rmse_ppm']!r} above {RMSE_CEILING_PPM}")
    else:
        acc = float(np.mean(y_true == y_pred))
        if abs(acc - outputs["accuracy"]) > METRIC_ATOL:
            errors.append(f"accuracy {outputs['accuracy']!r} disagrees with predictions ({acc!r})")
        if not outputs["accuracy"] >= ACCURACY_FLOOR:
            errors.append(f"accuracy {outputs['accuracy']!r} below {ACCURACY_FLOOR}")
        if not set(y_pred.tolist()) <= set(y_true.tolist()):
            errors.append("predicted a class absent from the test set")
    if ref is not None:
        errors += _against_reference(outputs, ref, regression)
    return errors


def _against_reference(outputs: dict, ref: dict, regression: bool) -> list[str]:
    errors = []
    if regression:
        if outputs["y_true"] != ref["y_true"]:
            errors.append("test targets differ from the reference")
        scale = max(1.0, max(ref["y_true"]) - min(ref["y_true"]))
        dev = float(np.max(np.abs(np.array(outputs["y_pred"]) - ref["y_pred"])))
        if not dev <= MLP_RTOL * scale:
            errors.append(f"predictions deviate from the reference by {dev!r} ppm")
        for key in ("rmse_ppm", "mae_ppm", "r2"):
            if not abs(outputs[key] - ref[key]) <= MLP_RTOL * max(1.0, abs(ref[key])):
                errors.append(f"{key} {outputs[key]!r} vs reference {ref[key]!r}")
        return errors
    if outputs["y_true"] != ref["y_true"] or outputs["y_pred"] != ref["y_pred"]:
        errors.append("labels differ from the reference")
    if abs(outputs["accuracy"] - ref["accuracy"]) > METRIC_ATOL:
        errors.append(f"accuracy {outputs['accuracy']!r} vs reference {ref['accuracy']!r}")
    got, want = np.array(outputs["scores"]), np.array(ref["scores"])
    scale = np.maximum(np.abs(want).max(axis=0), 1e-300)
    dev = float(np.max(np.abs(got - want) / scale))
    if not dev <= SCORE_RTOL:
        errors.append(f"scores deviate from the reference by {dev!r} (relative)")
    return errors


def collect_stream(stream: Stream, session_csv: Path, processed_csv: Path) -> tuple[dict, list[str]]:
    """Outputs of one ingest + preprocess pair, checked against the oracle."""
    errors = []
    session = read_table(session_csv).astype(np.int64)
    if session.shape != (stream.t_ms.size, 5):
        return {}, [f"{stream.name}: ingested {session.shape[0]} frames, "
                    f"expected {stream.t_ms.size}"]
    if not (np.array_equal(session[:, 0], stream.t_ms)
            and np.array_equal(session[:, 1:], stream.counts)):
        errors.append(f"{stream.name}: ingested counts differ from the imputation rule")
    processed = read_table(processed_csv)
    want = processed_expected(stream.t_ms, stream.counts)
    if processed.shape != (stream.t_ms.size, 5):
        return {}, errors + [f"{stream.name}: processed file has shape {processed.shape}"]
    dev = float(np.max(np.abs(processed[:, 1:] - want)))
    if not dev <= PROCESSED_ATOL:
        errors.append(f"{stream.name}: processed values deviate by {dev!r} V")
    meta = processed_csv.with_suffix(".meta").read_text()
    if f"label={stream.label}\n" not in meta:
        errors.append(f"{stream.name}: processed meta lost the label")
    ch = processed[:, 1:]
    summary = np.stack([ch.sum(axis=0), ch.min(axis=0), ch.max(axis=0)], axis=1)
    return {"digest": sha256(processed_csv), "summary": summary.tolist()}, errors


def check_streams_reference(outputs: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return []
    errors = []
    for key in ("inputs_digest", "blank_fields", "malformed_lines"):
        if outputs[key] != ref[key]:
            errors.append(f"{key} {outputs[key]!r} differs from the reference {ref[key]!r}")
    if sorted(outputs["streams"]) != sorted(ref["streams"]):
        return errors + ["stream set differs from the reference"]
    for name, got in outputs["streams"].items():
        dev = float(np.max(np.abs(np.array(got["summary"]) - ref["streams"][name]["summary"])))
        if not dev <= SUMMARY_ATOL:
            errors.append(f"{name}: processed summary deviates by {dev!r}")
    return errors


def identical_artifacts(outputs: dict, ref: dict) -> int:
    """Count of artifacts byte-identical to those in `ref`."""
    if "artifacts" in outputs:
        want = ref.get("artifacts", {})
        return sum(1 for k, v in outputs["artifacts"].items() if want.get(k) == v)
    want = ref.get("streams", {})
    return sum(1 for k, v in outputs.get("streams", {}).items()
               if want.get(k, {}).get("digest") == v.get("digest"))
