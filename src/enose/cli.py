"""Command line interface.

    enose simulate    --table binary-ethanol --seed 42 --out sessions/ [--config run.conf]
    enose ingest      --in frames.txt|- --out session.csv
    enose preprocess  --in session.csv --out processed.csv [--config run.conf]
    enose train-svm   --in features.csv --model out.svm [--config run.conf]
    enose classify    --model out.svm --in features.csv --report report.csv
    enose train-mlp   --in features.csv --model out.mlp [--config run.conf] [--seed 42]
    enose predict     --model out.mlp --in features.csv --report pred.csv
    enose bench       --table ternary --seed 7 --out results/ [--features kpca]

Run settings come only from the `--config` file; `bench --features` is
the one flag that sets one.  `train-svm`/`train-mlp` fit bench's chain (standardize, PCA or
KPCA, then the model) on a features CSV with those settings, and save it
as one model file that `classify`/`predict` apply.

Numeric flags follow the file rule: `checks.parse_int` and
`parse_float` are their argparse types, so `--label +2`, `--rate 1_0`,
`--rate ' 10 '` or a non-ASCII digit is a usage error naming the flag,
exit 2.

Every failure exits nonzero with a `[stage=...]` tagged message.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import acquisition, bench, features, modelio
from . import preprocess as prep
from . import report as reportmod
from . import sensors
from .bench import PipelineConfig, StageError
from .checks import (decode_text, parse_config_text, parse_float, parse_int, read_text,
                     split_lines, write_lines)
from .mlp import MlpModel, evaluate_regression, mlp_forward, mlp_train
from .svm import SvmModel, svm_predict, svm_train_multiclass

TABLE_CHOICES = tuple(key.replace("_", "-") for key in bench.TABLES)


def pipeline_config(args) -> PipelineConfig:
    """Defaults <- `--config` file <- `bench --features`."""
    cfg = PipelineConfig()
    if args.config:
        cfg = cfg.updated(parse_config_text(read_text(args.config)))
    if getattr(args, "features", None):
        cfg = dataclasses.replace(cfg, features=args.features)
    return cfg


def cmd_simulate(args) -> int:
    table = bench.get_table(args.table)
    cfg = pipeline_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = 0
    for session in bench.build_sessions(table, cfg, args.seed, per_row=args.per_row):
        acquisition.write_session(session, out / f"session_{n:04d}.csv")
        n += 1
    print(f"wrote {n} sessions to {out}")
    return 0


def cmd_ingest(args) -> int:
    text = (decode_text(sys.stdin.buffer.read()) if args.infile == "-"
            else read_text(args.infile))
    mixture = sensors.GasMixture(args.acetone, args.ethanol, args.methanol)
    session = acquisition.parse_stream(split_lines(text), label=args.label,
                                       mixture=mixture, sample_rate_hz=args.rate)
    acquisition.write_session(session, args.out)
    print(f"ingested {len(session.t_ms)} frames -> {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    cfg = pipeline_config(args)
    session = acquisition.read_session(args.infile)
    filter_config = cfg.filter_config()
    channels = prep.process_session(session.voltages(), session.t_ms, filter_config)
    prep.write_processed(session, channels, filter_config, args.out)
    print(f"processed {len(channels)} samples -> {args.out}")
    return 0


# Model type -> (its section name in a model file, the command that applies it).
_APPLIED_BY = {SvmModel: ("svm", "classify"), MlpModel: ("mlp", "predict")}


def _load_chain(path, command: str):
    """The (front, model) chain of a model file that `command` can apply."""
    front, model = modelio.load_model(path)
    kind, applied_by = _APPLIED_BY[type(model)]
    if applied_by != command:
        raise ValueError(f"{path} holds an {kind} model; use `enose {applied_by}`")
    return front, model


def cmd_train_svm(args) -> int:
    cfg = pipeline_config(args)
    x, y, _ = features.read_features_csv(args.infile)
    front = bench.fit_front(x, cfg)
    model = svm_train_multiclass(front.scores(x), y, cfg.svm_params())
    modelio.save_model(front, model, args.model)
    print(f"trained {len(model.machines)} class pairs -> {args.model}")
    return 0


def _overflow(model_path, what: str, section: str) -> ValueError:
    return ValueError(f"{model_path}: {what} overflow; a value in section {section} "
                      "or an earlier section is too large")


def cmd_classify(args) -> int:
    front, model = _load_chain(args.model, "classify")
    x, y, _ = features.read_features_csv(args.infile)
    # every number of a loaded chain is finite, but a huge one can still
    # overflow on the way to a score or a decision value
    with np.errstate(over="ignore", invalid="ignore"):
        z = front.scores(x)
        if not np.isfinite(z).all():
            pca = isinstance(front.reducer, features.PcaModel)
            raise _overflow(args.model, "scores", "pca" if pca else "kpca")
        try:
            pred = svm_predict(model, z)
        except OverflowError:
            raise _overflow(args.model, "SVM decision values", "svm") from None
    lines = []
    if np.any(y != 0):
        accuracy = float(np.mean(pred == y))
        lines.append(f"# accuracy = {accuracy!r}")
    lines.append("index,label,predicted")
    lines += [f"{i},{int(t)},{int(p)}" for i, (t, p) in enumerate(zip(y, pred))]
    write_lines(args.report, lines)
    print(f"classified {pred.size} samples -> {args.report}")
    return 0


def cmd_train_mlp(args) -> int:
    cfg = pipeline_config(args)
    x, _, conc = features.read_features_csv(args.infile)
    front = bench.fit_front(x, cfg)
    z = front.scores(x)
    model = mlp_train(z, conc[:, 0], cfg.mlp_config(args.seed))
    modelio.save_model(front, model, args.model)
    print(f"trained MLP ({len(model.loss_trace)} epochs, "
          f"final loss {model.loss_trace[-1]:.3e}) -> {args.model}")
    return 0


def cmd_predict(args) -> int:
    front, model = _load_chain(args.model, "predict")
    x, _, conc = features.read_features_csv(args.infile)
    # every number of a loaded chain is finite, but a huge one can still
    # overflow on the way to a prediction or its error
    with np.errstate(over="ignore", invalid="ignore"):
        preds = mlp_forward(model, front.scores(x))
        metrics = evaluate_regression(preds, conc[:, 0])
    if not np.isfinite([*preds, metrics["rmse_ppm"], metrics["mae_ppm"]]).all():
        raise _overflow(args.model, "predictions or their errors", "mlp")
    r2 = "undefined" if metrics["r2"] is None else repr(metrics["r2"])
    lines = [
        f"# rmse_ppm = {metrics['rmse_ppm']!r}",
        f"# mae_ppm = {metrics['mae_ppm']!r}",
        f"# r2 = {r2}",
        "index,true_ppm,pred_ppm",
    ]
    lines += [f"{i},{float(t)!r},{float(p)!r}"
              for i, (t, p) in enumerate(zip(conc[:, 0], preds))]
    write_lines(args.report, lines)
    print(f"predicted {preds.size} samples -> {args.report}")
    return 0


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    table = bench.get_table(args.table)
    cfg = pipeline_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    prepared = bench.prepare_features(table, cfg, args.seed)
    features.write_features_csv(out / "features_train.csv",
                                prepared.x[prepared.train_idx],
                                prepared.y[prepared.train_idx],
                                prepared.conc[prepared.train_idx])
    features.write_features_csv(out / "features_test.csv",
                                prepared.x[prepared.test_idx],
                                prepared.y[prepared.test_idx],
                                prepared.conc[prepared.test_idx])

    if args.regression:
        rep = bench.run_regression_experiment(table, cfg, args.seed, prepared=prepared)
        reportmod.emit_report(rep, out)
        r2 = "undefined" if rep.r2 is None else f"{rep.r2:.4f}"
        print(f"{table.id}: rmse={rep.rmse_ppm:.3f} ppm  mae={rep.mae_ppm:.3f} ppm  "
              f"r2={r2}  ({time.perf_counter() - t0:.1f}s)")
    else:
        rep = bench.run_experiment(table, cfg, args.seed, prepared=prepared)
        reportmod.emit_report(rep, out)
        print(f"{table.id}: accuracy={rep.accuracy:.4f} on {rep.y_true.size} "
              f"test samples  ({time.perf_counter() - t0:.1f}s)")
    return 0


def parse_seed(text: str) -> int:
    """The `--seed` argument type: an integer >= 0."""
    seed = parse_int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `enose` argument parser, built once per process."""
    parser = argparse.ArgumentParser(prog="enose",
                                     description="gas sensor array toolkit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log pipeline stages to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate labeled sessions for a table")
    p.add_argument("--table", required=True, choices=TABLE_CHOICES)
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--per-row", type=parse_int, default=None,
                   help="sessions per mixture row (default: table split sizes)")
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("ingest", help="parse a raw frame stream into a session CSV")
    p.add_argument("--in", dest="infile", required=True, help="file or - for stdin")
    p.add_argument("--out", required=True)
    p.add_argument("--label", type=parse_int, default=0)
    p.add_argument("--rate", type=parse_float, default=sensors.SAMPLE_RATE_HZ)
    p.add_argument("--acetone", type=parse_float, default=0.0)
    p.add_argument("--ethanol", type=parse_float, default=0.0)
    p.add_argument("--methanol", type=parse_float, default=0.0)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("preprocess", help="smooth and detrend a session CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("train-svm", help="fit bench's PCA/KPCA + SVM chain on a features CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.set_defaults(fn=cmd_train_svm)

    p = sub.add_parser("classify", help="label a features CSV with a trained SVM chain")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("train-mlp", help="fit bench's PCA/KPCA + MLP chain on a features CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--seed", type=parse_seed, default=0)
    p.set_defaults(fn=cmd_train_mlp)

    p = sub.add_parser("predict", help="predict acetone ppm with a trained MLP chain")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("bench", help="run a full experiment end to end")
    p.add_argument("--table", required=True, choices=TABLE_CHOICES)
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--features", choices=("pca", "kpca"), default=None)
    p.add_argument("--regression", action="store_true",
                   help="run the MLP concentration experiment instead")
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    """Run one command.  The `enose` logger logs to stderr for this call
    only, at INFO with `-v`; the root logger is left as it is."""
    args = build_parser().parse_args(argv)
    logger = logging.getLogger("enose")
    level = logger.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    logger.setLevel(logging.INFO if args.verbose else logging.WARNING)
    logger.addHandler(handler)
    try:
        return run_tagged(args.command, args.fn, args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def run_tagged(stage: str, fn, *args) -> int:
    """`fn(*args)`, or exit code 2 after an `error [stage=...] message` line
    on stderr: a StageError names its own stage, any other failure `stage`."""
    try:
        return bench.tagged(stage, fn, *args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
