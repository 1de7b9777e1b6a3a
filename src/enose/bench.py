"""End-to-end experiment harness over the built-in mixture tables.

Each experiment simulates labeled sessions for every mixture row, pushes
them through preprocessing, feature extraction and PCA/KPCA reduction,
then trains a one-vs-one SVM (or an MLP for concentration regression)
and scores a stratified held-out split with exactly the table's
train/test counts.  The simulator's sessions are already validated
`Session`s, so they skip the wire-format codec; `enose ingest` is what
exercises it.

The base mixture ratios of every table are all acetone-dominant, so a
classifier would see a single class; every built-in table therefore
also carries the role-swapped (binary) or role-rotated (ternary)
counterpart of each base row, labeled by its own dominant gas.
Mixtures with tied concentrations keep the earlier gas in (acetone,
ethanol, methanol) order as their label.
"""

from __future__ import annotations

import dataclasses
import logging
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .acquisition import Session
from .checks import check_sizes
from .features import (N_FEATURES, KpcaModel, PcaModel, extract_features,
                       kpca_fit, kpca_transform, pca_fit, pca_transform)
from .mlp import MlpConfig, evaluate_regression, mlp_forward, mlp_train
from .preprocess import FilterConfig, Standardizer, fit_standardizer, process_session
from .report import (RegressionReport, RunReport, classification_metrics)
from .sensors import (CLEAN_AIR, DEFAULT_DRIFT_RATE, DEFAULT_NOISE_SIGMA, SAMPLE_RATE_HZ,
                      GasMixture, SensorSpec, clean_traces, default_sensor_array,
                      dominant_gas_label, session_seed, simulate_session,
                      standard_protocol)
from .svm import SvmParams, svm_predict, svm_train_multiclass

log = logging.getLogger("enose.bench")


class StageError(RuntimeError):
    """Pipeline failure tagged with the stage it happened in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[stage={stage}] {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class ExperimentTable:
    id: str
    rows: tuple[GasMixture, ...]
    n_train: int
    n_test: int
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.rows:
            raise ValueError("experiment table has no rows")
        if self.n_train < 0 or self.n_test < 1:
            raise ValueError("bad split sizes")

    @property
    def n_total(self) -> int:
        return self.n_train + self.n_test


def _mirror_binary(pairs, gas_b: str) -> tuple[GasMixture, ...]:
    """Base (acetone, other) rows plus their role-swapped counterparts."""
    def mix(a: float, b: float) -> GasMixture:
        kw = {"acetone_ppm": a, f"{gas_b}_ppm": b}
        return GasMixture(**kw)

    rows = [mix(a, b) for a, b in pairs]
    rows += [mix(b, a) for a, b in pairs]
    return tuple(rows)


def _rotate_ternary(triples) -> tuple[GasMixture, ...]:
    """Base rows plus both cyclic role rotations of each."""
    rows = [GasMixture(a, e, m) for a, e, m in triples]
    rows += [GasMixture(m, a, e) for a, e, m in triples]   # ethanol-dominant
    rows += [GasMixture(e, m, a) for a, e, m in triples]   # methanol-dominant
    return tuple(rows)


_BINARY_PAIRS = (
    (100.0, 0.0), (99.0, 1.0), (90.0, 10.0), (50.0, 50.0),
    (50.0, 0.0), (49.5, 0.5), (45.0, 5.0), (25.0, 25.0),
)

_TERNARY_TRIPLES = (
    (200.0, 0.0, 0.0), (198.0, 1.0, 1.0), (180.0, 10.0, 10.0),
    (100.0, 50.0, 50.0), (100.0, 0.0, 0.0), (98.0, 0.5, 0.5),
    (90.0, 5.0, 5.0), (50.0, 25.0, 25.0),
)

_MIRROR_NOTE = ("rows 8+ are role-swapped counterparts of the base mixtures "
                "so both classes are populated")
_ROTATE_NOTE = ("rows 8+ are cyclic role rotations of the base mixtures "
                "so all three classes are populated")
_ODD_ROW_NOTE = ("row 98ppm/0.5ppm/0.5ppm kept as-is although its total "
                 "of 99 breaks the neighbouring 100-step pattern")

TABLES: dict[str, ExperimentTable] = {
    "binary_ethanol": ExperimentTable(
        id="binary_ethanol",
        rows=_mirror_binary(_BINARY_PAIRS, "ethanol"),
        n_train=600, n_test=80,
        notes=(_MIRROR_NOTE,),
    ),
    "binary_methanol": ExperimentTable(
        id="binary_methanol",
        rows=_mirror_binary(_BINARY_PAIRS, "methanol"),
        n_train=700, n_test=100,
        notes=(_MIRROR_NOTE,),
    ),
    "ternary": ExperimentTable(
        id="ternary",
        rows=_rotate_ternary(_TERNARY_TRIPLES),
        n_train=550, n_test=50,
        notes=(_ROTATE_NOTE, _ODD_ROW_NOTE),
    ),
}


def get_table(table_id: str) -> ExperimentTable:
    key = table_id.replace("-", "_")
    if key not in TABLES:
        raise KeyError(f"unknown table {table_id!r}; "
                       f"choose from {sorted(TABLES)}")
    return TABLES[key]


# How `echo` spells a setting whose value is None; `updated` reads it back.
_NONE_SPELLING = {"svm_gamma": "auto", "tau_rise": "default", "tau_fall": "default"}


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of a run.

    Its fields, with `filter` flattened, are the config-file keys and the
    report's echo, so an echo block is a valid config file.  Construction
    builds the `SvmParams`, `MlpConfig`, sensor array and exposure protocol
    the settings describe, so the range checks those types own stop a bad
    setting before any stage runs.
    """

    features: str = "pca"            # "pca" or "kpca"
    variance_threshold: float = 0.95
    svm_c: float = 10.0
    svm_kernel: str = "rbf"
    svm_gamma: float | None = None   # None: data-driven heuristic
    filter: FilterConfig = field(default_factory=FilterConfig)
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    drift_rate: float = DEFAULT_DRIFT_RATE
    tau_rise: float | None = None    # None: per-sensor defaults
    tau_fall: float | None = None
    sample_rate_hz: float = SAMPLE_RATE_HZ
    mlp_hidden: tuple[int, ...] = (16,)
    mlp_lr: float = 0.05
    mlp_epochs: int = 150

    def __post_init__(self):
        if self.features not in ("pca", "kpca"):
            raise ValueError("features must be 'pca' or 'kpca'")
        if not 0 < self.variance_threshold <= 1:
            raise ValueError("variance_threshold must be in (0, 1]")
        if not self.mlp_hidden:
            raise ValueError("mlp_hidden needs at least one layer size")
        # each type checks its own settings; the seed and mixture come later
        self.svm_params()
        self.mlp_config(seed=0)
        sensor_array_for(self)
        standard_protocol(CLEAN_AIR, self.sample_rate_hz)

    def svm_params(self) -> SvmParams:
        return SvmParams(c_penalty=self.svm_c, kernel=self.svm_kernel,
                         gamma=self.svm_gamma)

    def mlp_config(self, seed: int) -> MlpConfig:
        return MlpConfig(hidden_layers=self.mlp_hidden,
                         lr=self.mlp_lr, epochs=self.mlp_epochs, seed=seed)

    def settings(self) -> dict[str, object]:
        """Setting key -> value in field order, with `filter` flattened."""
        out: dict[str, object] = {}
        for f in dataclasses.fields(self):
            if f.name == "filter":
                out.update(dataclasses.asdict(self.filter))
            else:
                out[f.name] = getattr(self, f.name)
        return out

    def echo(self) -> tuple[tuple[str, str], ...]:
        """(key, text) per setting, spelled as a config file spells it."""
        return tuple((key, _spell(key, value))
                     for key, value in self.settings().items())

    def updated(self, entries: dict[str, str]) -> PipelineConfig:
        """A copy with config-file entries applied, each text parsed by the
        type of its setting's default; unknown keys raise."""
        defaults = PipelineConfig().settings()
        values = self.settings()
        for key, text in entries.items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r}")
            try:
                values[key] = _parse(key, text, defaults[key])
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
        filter_config = FilterConfig(**{k: values.pop(k)
                                        for k in dataclasses.asdict(self.filter)})
        return PipelineConfig(**values, filter=filter_config)


def _spell(key: str, value) -> str:
    if value is None:
        return _NONE_SPELLING[key]
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return value if isinstance(value, str) else repr(value)


def _parse(key: str, text: str, default):
    if text == _NONE_SPELLING.get(key):
        return None
    if isinstance(default, tuple):
        return tuple(int(v) for v in text.split())
    return float(text) if default is None else type(default)(text)


def row_counts(total: int, n_rows: int) -> list[int]:
    """Split `total` sessions over rows; the remainder goes round-robin."""
    base, rem = divmod(total, n_rows)
    return [base + (1 if i < rem else 0) for i in range(n_rows)]


def sensor_array_for(config: PipelineConfig) -> tuple[SensorSpec, ...]:
    """The default array with the config's noise, drift and time constants."""
    overrides = {"noise_sigma": config.noise_sigma, "drift_rate": config.drift_rate}
    overrides.update({key: tau for key in ("tau_rise", "tau_fall")
                      if (tau := getattr(config, key)) is not None})
    return tuple(dataclasses.replace(s, **overrides) for s in default_sensor_array())


def build_sessions(table: ExperimentTable, config: PipelineConfig,
                   seed: int, per_row: int | None = None) -> Iterator[Session]:
    """Simulate labeled sessions for every mixture row of the table, lazily.

    The table's n_total sessions are split over its rows (`row_counts`)
    unless `per_row` gives every row that many.  Labels follow the
    dominant-gas rule; session (row, rep) is seeded by `session_seed`.
    The settings are checked now; sessions are made one at a time as the
    returned iterator is read, in row-then-rep order, and only the current
    row's clean trace is kept between them.
    """
    if per_row is None:
        counts = row_counts(table.n_total, len(table.rows))
    elif per_row < 1:
        raise ValueError("per_row must be >= 1")
    else:
        counts = [per_row] * len(table.rows)
    specs = sensor_array_for(config)
    return _simulate_rows(table.rows, counts, specs, config.sample_rate_hz, seed)


def _simulate_rows(rows, counts, specs, rate: float, seed: int) -> Iterator[Session]:
    for row_idx, (mix, count) in enumerate(zip(rows, counts)):
        proto = standard_protocol(mix, rate)
        label = dominant_gas_label(mix)
        clean = clean_traces(specs, proto)
        for rep in range(count):
            t_ms, raw = simulate_session(specs, proto,
                                         session_seed(seed, row_idx, rep), clean)
            yield Session(t_ms, raw, label=label, mixture=mix, sample_rate_hz=rate)


def stratified_split(y, n_train: int, n_test: int, seed: int):
    """Disjoint train/test indices with exact totals, stratified by class.

    Per-class test counts follow largest-remainder apportionment of the
    class frequencies, so the test set mirrors the class balance.
    """
    y = np.asarray(y, dtype=np.int64)
    n = y.size
    if n != n_train + n_test:
        raise ValueError(f"split {n_train}+{n_test} does not cover {n} samples")
    classes = np.unique(y)
    counts = {c: int((y == c).sum()) for c in classes}
    quotas = {c: n_test * counts[c] / n for c in classes}
    test_counts = {c: int(quotas[c]) for c in classes}
    short = n_test - sum(test_counts.values())
    for c in sorted(classes, key=lambda c: (quotas[c] - int(quotas[c]), -counts[c]),
                    reverse=True)[:short]:
        test_counts[c] += 1

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    train_idx, test_idx = [], []
    for c in classes:
        members = np.flatnonzero(y == c)
        members = members[rng.permutation(members.size)]
        k = test_counts[c]
        test_idx.extend(members[:k])
        train_idx.extend(members[k:])
    train = np.sort(np.array(train_idx))
    test = np.sort(np.array(test_idx))
    if test.size != n_test or train.size != n_train:
        raise ValueError("per-class apportionment cannot hit the exact split")
    return train, test


def _stage(name: str, fn, *args, **kwargs):
    log.info("stage %s", name)
    return _tagged(name, fn, *args, **kwargs)


def _tagged(name: str, fn, *args, **kwargs):
    """`fn(*args, **kwargs)`, with a failure raised as a StageError of `name`."""
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


@dataclass(frozen=True)
class FittedFront:
    """The fitted front half of the detector: z-scoring, then PCA or KPCA."""

    standardizer: Standardizer
    reducer: PcaModel | KpcaModel

    def __post_init__(self):
        # sizes named by model-file section: only a loaded chain can disagree
        r = self.reducer
        name, width = (("pca", len(r.mean)) if isinstance(r, PcaModel)
                       else ("kpca", r.x_train.shape[1]))
        check_sizes({"section standardizer mean": len(self.standardizer.mean),
                     f"section {name} input width": width})

    def scores(self, x) -> np.ndarray:
        """Reduced scores of raw feature rows."""
        project = pca_transform if isinstance(self.reducer, PcaModel) else kpca_transform
        return project(self.reducer, self.standardizer.transform(x))


def fit_front(x_train, config: PipelineConfig) -> FittedFront:
    """Fit the standardizer, then the config's reducer on its output."""
    std = _stage("standardize", fit_standardizer, x_train)
    fit = pca_fit if config.features == "pca" else kpca_fit
    reducer = _stage("reduce", fit, std.transform(x_train),
                     variance_threshold=config.variance_threshold)
    return FittedFront(standardizer=std, reducer=reducer)


# Sessions go through the front end's stages this many at a time.  A
# chunk's memory does not grow with the table, and running each stage over
# a chunk keeps `enose bench` as fast as running it over the whole table;
# one session at a time made the ternary front end ~14% slower.
FRONT_CHUNK = 16


@dataclass(frozen=True)
class FeatureSplit:
    """Front half of an experiment: features, split and reduced matrices."""

    x: np.ndarray            # n x 12 raw feature matrix
    y: np.ndarray            # class labels
    conc: np.ndarray         # n x 3 ppm targets
    train_idx: np.ndarray
    test_idx: np.ndarray
    z_train: np.ndarray      # reduced training scores
    z_test: np.ndarray


def prepare_features(table: ExperimentTable, config: PipelineConfig,
                     seed: int) -> FeatureSplit:
    """Run generate -> preprocess -> extract -> split -> reduce.

    The front end streams: FRONT_CHUNK sessions at a time are generated,
    preprocessed and reduced to feature rows before the next ones are
    made, so its memory does not grow with the table.  Preprocess and
    extract run once per chunk, on its sessions' voltages side by side
    (they share `t_ms`).  The wire-format codec that `enose ingest` runs
    would give the generated sessions back unchanged, so they skip it.
    Labels and targets come from the table's rows.  Each stage is logged
    once, on the first chunk, and a failure is tagged with its stage.
    """
    sessions = _stage("generate", build_sessions, table, config, seed)
    x = np.empty((table.n_total, N_FEATURES))
    for start in range(0, table.n_total, FRONT_CHUNK):
        stage = _stage if start == 0 else _tagged
        chunk = _tagged("generate", list, islice(sessions, FRONT_CHUNK))
        volts = np.hstack([s.voltages() for s in chunk])
        channels = stage("preprocess", process_session, volts, chunk[0].t_ms, config.filter)
        x[start:start + len(chunk)] = stage("extract", extract_features, channels,
                                            config.sample_rate_hz)
    counts = row_counts(table.n_total, len(table.rows))
    y = np.repeat(np.array([dominant_gas_label(m) for m in table.rows], dtype=np.int64),
                  counts)
    conc = np.repeat(np.array([m.as_tuple() for m in table.rows], dtype=float),
                     counts, axis=0)

    train_idx, test_idx = _stage("split", stratified_split, y,
                                 table.n_train, table.n_test, seed)
    front = fit_front(x[train_idx], config)
    return FeatureSplit(x=x, y=y, conc=conc, train_idx=train_idx,
                        test_idx=test_idx, z_train=front.scores(x[train_idx]),
                        z_test=front.scores(x[test_idx]))


def run_experiment(table_id: str | ExperimentTable,
                   config: PipelineConfig = PipelineConfig(),
                   seed: int = 0,
                   prepared: FeatureSplit | None = None) -> RunReport:
    """Full classification experiment; deterministic for a fixed seed."""
    table = get_table(table_id) if isinstance(table_id, str) else table_id
    fs = prepared if prepared is not None else prepare_features(table, config, seed)
    y, train_idx, test_idx = fs.y, fs.train_idx, fs.test_idx
    z_train, z_test = fs.z_train, fs.z_test

    model = _stage("train", svm_train_multiclass, z_train, y[train_idx],
                   config.svm_params())
    y_pred = _stage("score", svm_predict, model, z_test)

    y_test = y[test_idx]
    confusion, accuracy, precision, recall = classification_metrics(
        y_test, y_pred, model.classes)
    scores_2d = z_test[:, :2] if z_test.shape[1] >= 2 else np.column_stack(
        [z_test[:, 0], np.zeros(z_test.shape[0])])
    return RunReport(
        table_id=table.id, seed=seed, classes=model.classes,
        confusion=confusion, accuracy=accuracy,
        precision=precision, recall=recall,
        y_true=y_test, y_pred=y_pred, scores_2d=scores_2d,
        config_echo=(("n_train", str(table.n_train)),
                     ("n_test", str(table.n_test))) + config.echo(),
        notes=table.notes,
    )


def run_regression_experiment(table_id: str | ExperimentTable,
                              config: PipelineConfig = PipelineConfig(),
                              seed: int = 0,
                              prepared: FeatureSplit | None = None) -> RegressionReport:
    """Same pipeline, but an MLP predicting the acetone concentration."""
    table = get_table(table_id) if isinstance(table_id, str) else table_id
    fs = prepared if prepared is not None else prepare_features(table, config, seed)
    train_idx, test_idx = fs.train_idx, fs.test_idx
    z_train, z_test = fs.z_train, fs.z_test

    acetone = fs.conc[:, 0]
    model = _stage("train", mlp_train, z_train, acetone[train_idx],
                   config.mlp_config(seed))
    preds = _stage("score", mlp_forward, model, z_test)
    metrics = evaluate_regression(preds, acetone[test_idx])

    return RegressionReport(
        table_id=table.id, seed=seed,
        rmse_ppm=metrics["rmse_ppm"], mae_ppm=metrics["mae_ppm"], r2=metrics["r2"],
        y_true=acetone[test_idx], y_pred=preds,
        loss_trace=model.loss_trace,
        config_echo=(("n_train", str(table.n_train)),
                     ("n_test", str(table.n_test))) + config.echo(),
        notes=table.notes,
    )
