import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from enose import report as rp


def read_metrics_csv(path) -> dict[str, float | None]:
    """Metric name -> value from a metrics.csv; `undefined` reads back as None."""
    metrics: dict[str, float | None] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line == "metric,value":
            continue
        key, _, value = line.partition(",")
        metrics[key] = None if value == "undefined" else float(value)
    return metrics


def toy_report(n=12):
    rng = np.random.default_rng(0)
    y_true = np.array([1, 2, 3] * (n // 3))
    y_pred = y_true.copy()
    y_pred[0] = 2
    confusion, accuracy, precision, recall = rp.classification_metrics(
        y_true, y_pred, (1, 2, 3))
    return rp.RunReport(
        table_id="toy", seed=5, classes=(1, 2, 3),
        confusion=confusion, accuracy=accuracy,
        precision=precision, recall=recall,
        y_true=y_true, y_pred=y_pred,
        scores_2d=rng.normal(0, 1, (n, 2)),
        config_echo=(("features", "pca"), ("svm_c", "10.0")),
        notes=("toy table",),
    )


class TestMetrics:
    def test_confusion_and_accuracy(self):
        confusion, accuracy, precision, recall = rp.classification_metrics(
            [1, 1, 2, 2], [1, 2, 2, 2], (1, 2))
        assert confusion.tolist() == [[1, 1], [0, 2]]
        assert accuracy == 0.75
        assert precision[1] == 1.0
        assert precision[2] == pytest.approx(2 / 3)
        assert recall[1] == 0.5
        assert recall[2] == 1.0

    def test_row_sums_are_class_counts(self):
        rep = toy_report()
        for i, c in enumerate(rep.classes):
            assert rep.confusion[i].sum() == (rep.y_true == c).sum()
        assert rep.accuracy == np.trace(rep.confusion) / rep.confusion.sum()


class TestCsvEmission:
    def test_metrics_round_trip(self, tmp_path):
        rep = toy_report()
        files = rp.emit_report(rep, tmp_path)
        names = {f.name for f in files}
        assert names == {"metrics.csv", "predictions.csv", "scatter.svg",
                         "classification.svg"}
        metrics = read_metrics_csv(tmp_path / "metrics.csv")
        assert metrics["accuracy"] == rep.accuracy
        for c in rep.classes:
            assert metrics[f"precision_{c}"] == rep.precision[c]
            assert metrics[f"recall_{c}"] == rep.recall[c]
        assert metrics["confusion_1_2"] == rep.confusion[0, 1]

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rp.emit_report(toy_report(), "")

    def test_regression_report_undefined_r2(self, tmp_path):
        rep = rp.RegressionReport(
            table_id="toy", seed=1, rmse_ppm=0.5, mae_ppm=0.4, r2=None,
            y_true=np.array([5.0, 5.0]), y_pred=np.array([5.1, 4.9]),
            loss_trace=np.array([0.1, 0.05]),
            config_echo=(), notes=())
        files = rp.emit_report(rep, tmp_path)
        assert {f.name for f in files} == {"metrics.csv", "predictions.csv",
                                           "loss_trace.csv"}
        metrics = read_metrics_csv(tmp_path / "metrics.csv")
        assert metrics["r2"] is None
        assert metrics["rmse_ppm"] == 0.5
        trace = (tmp_path / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,loss"
        assert len(trace) == 3


class TestSvgEmission:
    def test_well_formed_with_one_marker_per_test_sample(self, tmp_path):
        rep = toy_report(n=12)
        files = [f for f in rp.emit_report(rep, tmp_path) if f.suffix == ".svg"]
        assert {f.name for f in files} == {"scatter.svg", "classification.svg"}
        for path in files:
            root = ET.fromstring(path.read_text())
            assert root.tag.endswith("svg")
            circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
            assert len(circles) == 12

    def test_misclassified_markers_are_ringed(self, tmp_path):
        rep = toy_report(n=12)
        rp.emit_report(rep, tmp_path)
        text = (tmp_path / "classification.svg").read_text()
        assert text.count('stroke-width="1.5"') == int((rep.y_true != rep.y_pred).sum())

    def test_deterministic_bytes(self, tmp_path):
        rep = toy_report()
        rp.emit_report(rep, tmp_path / "a")
        rp.emit_report(rep, tmp_path / "b")
        for name in ("scatter.svg", "classification.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()
