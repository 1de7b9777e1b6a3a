"""Experiment reports: metrics tables (CSV) and plots (hand-emitted SVG).

Serialized artifacts are deterministic: floats are written with repr()
and no report holds a timing, so two runs with the same seed produce
byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checks import write_lines

CLASS_COLORS = {0: "#7f7f7f", 1: "#1f77b4", 2: "#d62728", 3: "#2ca02c"}
CLASS_NAMES = {0: "unknown", 1: "acetone", 2: "ethanol", 3: "methanol"}


@dataclass(frozen=True)
class RunReport:
    """Classification experiment outcome."""

    table_id: str
    seed: int
    classes: tuple[int, ...]
    confusion: np.ndarray           # rows: true class, cols: predicted
    accuracy: float
    precision: dict[int, float]
    recall: dict[int, float]
    y_true: np.ndarray
    y_pred: np.ndarray
    scores_2d: np.ndarray           # test samples in the first two components
    config_echo: tuple[tuple[str, str], ...]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class RegressionReport:
    """Concentration regression outcome."""

    table_id: str
    seed: int
    rmse_ppm: float
    mae_ppm: float
    r2: float | None
    y_true: np.ndarray
    y_pred: np.ndarray
    loss_trace: np.ndarray
    config_echo: tuple[tuple[str, str], ...]
    notes: tuple[str, ...] = ()


def classification_metrics(y_true, y_pred, classes):
    """Confusion matrix plus accuracy and per-class precision/recall."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    idx = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        confusion[idx[int(t)], idx[int(p)]] += 1
    accuracy = float(np.trace(confusion)) / float(confusion.sum())
    precision, recall = {}, {}
    for c, i in idx.items():
        pred_c = float(confusion[:, i].sum())
        true_c = float(confusion[i, :].sum())
        precision[c] = float(confusion[i, i]) / pred_c if pred_c else 0.0
        recall[c] = float(confusion[i, i]) / true_c if true_c else 0.0
    return confusion, accuracy, precision, recall


def _check_out_dir(out_dir) -> Path:
    if out_dir is None or str(out_dir) == "":
        raise ValueError("output path is empty")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_lines(report) -> list[str]:
    lines = [
        "# enose report v1",
        f"# table = {report.table_id}",
        f"# seed = {report.seed}",
    ]
    lines += [f"# {k} = {v}" for k, v in report.config_echo]
    lines += [f"# note = {n}" for n in report.notes]
    return lines


def _metrics_rows(report) -> list[str]:
    if isinstance(report, RunReport):
        rows = [f"accuracy,{report.accuracy!r}"]
        for c in report.classes:
            rows.append(f"precision_{c},{report.precision[c]!r}")
            rows.append(f"recall_{c},{report.recall[c]!r}")
        for i, ci in enumerate(report.classes):
            for j, cj in enumerate(report.classes):
                rows.append(f"confusion_{ci}_{cj},{int(report.confusion[i, j])!r}")
        return rows
    rows = [f"rmse_ppm,{report.rmse_ppm!r}", f"mae_ppm,{report.mae_ppm!r}"]
    rows.append("r2,undefined" if report.r2 is None else f"r2,{report.r2!r}")
    return rows


def write_metrics_csv(report, path) -> None:
    write_lines(path, _echo_lines(report) + ["metric,value"] + _metrics_rows(report))


def write_predictions_csv(report, path) -> None:
    if isinstance(report, RunReport):
        lines = ["index,true,pred,score1,score2"]
        for i, (t, p) in enumerate(zip(report.y_true, report.y_pred)):
            s1, s2 = report.scores_2d[i]
            lines.append(f"{i},{int(t)},{int(p)},{float(s1)!r},{float(s2)!r}")
    else:
        lines = ["index,true_ppm,pred_ppm"]
        for i, (t, p) in enumerate(zip(report.y_true, report.y_pred)):
            lines.append(f"{i},{float(t)!r},{float(p)!r}")
    write_lines(path, lines)


def write_loss_trace_csv(report: RegressionReport, path) -> None:
    lines = ["epoch,loss"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(report.loss_trace)]
    write_lines(path, lines)


# --- SVG ------------------------------------------------------------------

_W, _H = 640, 480
_MARGIN = 60


def _axis_map(lo: float, hi: float, pix_lo: float, pix_hi: float):
    span = hi - lo
    if span <= 0:
        span = 1.0
    scale = (pix_hi - pix_lo) / span
    return lambda v: pix_lo + (v - lo) * scale


def _svg_doc(title: str, body: list[str]) -> list[str]:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="black"/>',
    ]
    return head + body + ["</svg>"]


def _legend(classes, x: float, y: float) -> list[str]:
    parts = []
    for k, c in enumerate(classes):
        yy = y + 18 * k
        parts.append(f'<rect x="{x:.1f}" y="{yy:.1f}" width="12" height="12" '
                     f'fill="{CLASS_COLORS[c]}"/>')
        parts.append(f'<text x="{x + 18:.1f}" y="{yy + 10:.1f}" '
                     f'font-family="sans-serif" font-size="12">'
                     f'{c}: {CLASS_NAMES.get(c, "?")}</text>')
    return parts


def scatter_svg(report: RunReport) -> list[str]:
    """First two feature-space components of the test set, colored by class."""
    s = report.scores_2d
    fx = _axis_map(float(s[:, 0].min()), float(s[:, 0].max()),
                   _MARGIN + 10, _W - _MARGIN - 10)
    fy = _axis_map(float(s[:, 1].min()), float(s[:, 1].max()),
                   _H - _MARGIN - 10, _MARGIN + 10)
    body = []
    for i, c in enumerate(report.y_true):
        body.append(f'<circle cx="{fx(s[i, 0]):.2f}" cy="{fy(s[i, 1]):.2f}" '
                    f'r="4" fill="{CLASS_COLORS[int(c)]}" fill-opacity="0.7"/>')
    body += _legend(report.classes, _W - _MARGIN + 6, _MARGIN)
    return _svg_doc(f"{report.table_id}: first two components", body)


def classification_svg(report: RunReport) -> list[str]:
    """Predicted class per test sample index; misclassified markers ringed."""
    n = report.y_pred.size
    classes = report.classes
    fx = _axis_map(0.0, float(max(n - 1, 1)), _MARGIN + 10, _W - _MARGIN - 10)
    fy = _axis_map(float(min(classes)) - 0.5, float(max(classes)) + 0.5,
                   _H - _MARGIN - 10, _MARGIN + 10)
    body = []
    for c in classes:
        body.append(f'<line x1="{_MARGIN}" y1="{fy(c):.2f}" x2="{_W - _MARGIN}" '
                    f'y2="{fy(c):.2f}" stroke="#dddddd"/>')
        body.append(f'<text x="{_MARGIN - 8}" y="{fy(c) + 4:.2f}" text-anchor="end" '
                    f'font-family="sans-serif" font-size="12">{c}</text>')
    for i in range(n):
        pred = int(report.y_pred[i])
        stroke = ' stroke="black" stroke-width="1.5"' if pred != int(report.y_true[i]) else ""
        body.append(f'<circle cx="{fx(i):.2f}" cy="{fy(pred):.2f}" r="4" '
                    f'fill="{CLASS_COLORS[pred]}" fill-opacity="0.8"{stroke}/>')
    body += _legend(classes, _W - _MARGIN + 6, _MARGIN)
    return _svg_doc(f"{report.table_id}: predicted class by test sample", body)


def emit_report(report, out_dir) -> list[Path]:
    """Write every artifact of the report's kind; returns the written paths.

    Both kinds write metrics.csv and predictions.csv.  A classification
    report adds scatter.svg and classification.svg, a regression report
    loss_trace.csv.
    """
    out = _check_out_dir(out_dir)
    written = [out / "metrics.csv", out / "predictions.csv"]
    write_metrics_csv(report, written[0])
    write_predictions_csv(report, written[1])
    if isinstance(report, RunReport):
        written += [out / "scatter.svg", out / "classification.svg"]
        write_lines(written[2], scatter_svg(report))
        write_lines(written[3], classification_svg(report))
    else:
        written.append(out / "loss_trace.csv")
        write_loss_trace_csv(report, written[2])
    return written
