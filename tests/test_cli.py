import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enose import config as cfg
from enose.acquisition import Session, read_session, write_session
from enose.bench import PipelineConfig
from enose.cli import main
from enose.features import N_FEATURES, write_features_csv
from enose.preprocess import FilterConfig
from enose.sensors import GasMixture

from test_modelio import training_data
from test_report import read_metrics_csv


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
pipeline_configs = st.builds(
    PipelineConfig,
    features=st.sampled_from(["pca", "kpca"]),
    variance_threshold=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    svm_c=positive,
    svm_kernel=st.sampled_from(["linear", "rbf"]),
    svm_gamma=st.none() | positive,
    filter=st.builds(FilterConfig, window_m=st.integers(0, 50).map(lambda k: 2 * k + 1),
                     baseline_degree=st.integers(0, 5)),
    noise_sigma=non_negative,
    drift_rate=finite,
    tau_rise=st.none() | positive,
    tau_fall=st.none() | positive,
    sample_rate_hz=st.floats(min_value=0.0, max_value=1000.0, exclude_min=True),
    mlp_hidden=st.lists(st.integers(1, 1024), min_size=1, max_size=3).map(tuple),
    mlp_lr=positive,
    mlp_epochs=st.integers(1, 10**6),
)


class TestConfigFiles:
    def test_parse_key_value_lines(self):
        text = "\n".join([
            "# simulator overrides",
            "noise_sigma = 0.01",
            "window_m = 7",
            "",
            "features = kpca  # trailing comment",
        ])
        entries = cfg.parse_config_text(text)
        assert entries == {"noise_sigma": "0.01", "window_m": "7",
                           "features": "kpca"}
        assert PipelineConfig().updated(entries) == PipelineConfig(
            noise_sigma=0.01, filter=FilterConfig(window_m=7), features="kpca")

    def test_bad_lines_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            cfg.parse_config_text("just words")
        with pytest.raises(ValueError, match="empty key"):
            cfg.parse_config_text("= 3")
        with pytest.raises(ValueError, match="unknown config key"):
            PipelineConfig().updated({"volume": "11"})

    def test_key_given_twice_rejected(self):
        with pytest.raises(ValueError, match="line 3: key 'svm_c' given twice"):
            cfg.parse_config_text("svm_c = 1\n# tuned\nsvm_c = 2\n")

    def test_hidden_sizes(self):
        assert PipelineConfig().updated({"mlp_hidden": "8 4"}).mlp_hidden == (8, 4)

    def test_svm_gamma_auto_or_number(self):
        tuned = PipelineConfig(svm_gamma=0.5)
        assert tuned.updated({"svm_gamma": "auto"}).svm_gamma is None
        assert PipelineConfig().updated({"svm_gamma": "0.5"}).svm_gamma == 0.5
        with pytest.raises(ValueError, match="config key 'svm_gamma': could not convert"):
            PipelineConfig().updated({"svm_gamma": "fast"})

    @pytest.mark.parametrize("key, text, message", [
        ("svm_c", "0", "c_penalty must be > 0"),
        ("svm_c", "-1", "c_penalty must be > 0"),
        ("svm_c", "nan", "c_penalty must be > 0"),
        ("svm_c", "inf", "c_penalty must be finite"),
        ("svm_kernel", "poly", "unknown kernel 'poly'"),
        ("svm_gamma", "0", "gamma must be > 0"),
        ("svm_gamma", "-0.5", "gamma must be > 0"),
        ("svm_gamma", "inf", "gamma must be finite"),
        ("mlp_hidden", "", "at least one layer size"),
        ("mlp_hidden", "8 0", "layer sizes must be >= 1"),
        ("mlp_lr", "0", "lr must be > 0"),
        ("mlp_lr", "nan", "lr must be > 0"),
        ("mlp_lr", "inf", "lr must be finite"),
        ("mlp_epochs", "0", "epochs must be >= 1"),
    ])
    def test_model_settings_checked_when_built(self, key, text, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig().updated({key: text})

    @pytest.mark.parametrize("key, text, message", [
        ("variance_threshold", "0", r"variance_threshold must be in \(0, 1\]"),
        ("variance_threshold", "2", r"variance_threshold must be in \(0, 1\]"),
        ("variance_threshold", "nan", r"variance_threshold must be in \(0, 1\]"),
        ("noise_sigma", "-0.01", "noise_sigma must be finite and >= 0"),
        ("noise_sigma", "nan", "noise_sigma must be finite and >= 0"),
        ("noise_sigma", "inf", "noise_sigma must be finite and >= 0"),
        ("drift_rate", "nan", "drift_rate must be finite"),
        ("drift_rate", "-inf", "drift_rate must be finite"),
        ("sample_rate_hz", "0", r"sample_rate_hz must be in \(0, 1000\]"),
        ("sample_rate_hz", "1000.5", r"sample_rate_hz must be in \(0, 1000\]"),
        ("sample_rate_hz", "nan", r"sample_rate_hz must be in \(0, 1000\]"),
        ("tau_rise", "0", "tau_rise must be > 0"),
        ("tau_rise", "nan", "tau_rise must be > 0"),
        ("tau_fall", "-3", "tau_fall must be > 0"),
        ("tau_fall", "nan", "tau_fall must be > 0"),
    ])
    def test_run_settings_checked_when_built(self, key, text, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig().updated({key: text})

    def test_run_settings_at_their_bounds_accepted(self):
        config = PipelineConfig().updated({
            "variance_threshold": "1", "noise_sigma": "0", "drift_rate": "-0.5",
            "sample_rate_hz": "1000", "tau_rise": "1e-3", "tau_fall": "default"})
        assert (config.variance_threshold, config.sample_rate_hz) == (1.0, 1000.0)

    @settings(max_examples=200, deadline=None)
    @given(pipeline_configs)
    def test_echo_is_a_config_file_for_the_same_config(self, config):
        assert PipelineConfig().updated(dict(config.echo())) == config
        text = "".join(f"{key} = {value}\n" for key, value in config.echo())
        assert cfg.parse_config_text(text) == dict(config.echo())


def separable_features(rng, n_per=20):
    a = rng.normal(0.0, 0.4, (n_per, N_FEATURES))
    b = rng.normal(4.0, 0.4, (n_per, N_FEATURES))
    x = np.vstack([a, b])
    y = np.array([1] * n_per + [2] * n_per)
    conc = np.zeros((2 * n_per, 3))
    conc[:n_per, 0] = 90.0
    conc[n_per:, 1] = 90.0
    conc[n_per:, 0] = 10.0
    return x, y, conc


def small_session(n=60):
    """A labelled 10 Hz session of n random frames."""
    counts = np.random.default_rng(0).integers(500, 3000, (n, 4))
    return Session(np.arange(n) * 100, counts, label=1, mixture=GasMixture(50, 0, 0))


class TestCliWorkflows:
    def test_simulate_writes_sessions_and_meta(self, tmp_path, capsys):
        conf = tmp_path / "sim.conf"
        conf.write_text("noise_sigma = 0\n")
        out = tmp_path / "sessions"
        rc = main(["simulate", "--table", "binary-ethanol", "--seed", "3",
                   "--out", str(out), "--per-row", "1", "--config", str(conf)])
        assert rc == 0
        csvs = sorted(out.glob("session_*.csv"))
        metas = sorted(out.glob("session_*.meta"))
        assert len(csvs) == 16 and len(metas) == 16
        assert "wrote 16 sessions" in capsys.readouterr().out

    def test_ingest_and_preprocess_chain(self, tmp_path):
        raw = tmp_path / "frames.txt"
        rng = np.random.default_rng(0)
        lines = [f"{i * 100},{','.join(str(v) for v in rng.integers(500, 3000, 4))}"
                 for i in range(50)]
        raw.write_text("\n".join(lines) + "\n")

        session_csv = tmp_path / "session.csv"
        rc = main(["ingest", "--in", str(raw), "--out", str(session_csv),
                   "--label", "1", "--acetone", "50"])
        assert rc == 0
        assert session_csv.exists()
        meta = (tmp_path / "session.meta").read_text()
        assert "label=1" in meta and "acetone_ppm=50.0" in meta

        conf = tmp_path / "filter.conf"
        conf.write_text("window_m = 3\nbaseline_degree = 1\n")
        processed_csv = tmp_path / "processed.csv"
        rc = main(["preprocess", "--in", str(session_csv), "--out",
                   str(processed_csv), "--config", str(conf)])
        assert rc == 0
        text = processed_csv.read_text()
        assert text.startswith("# window_m = 3\n# baseline_degree = 1\n")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_ingest_splits_lines_as_read_session_does(self, tmp_path, monkeypatch,
                                                      source):
        # \x1c is whitespace inside a field, not a line break
        raw = tmp_path / "frames.txt"
        raw.write_text("0,1,2,3,4\n10,1,2\x1c,3,4\r\n20,1,2,3,4\r30,1,2,3,4\n")
        write_session(read_session(raw), tmp_path / "expected.csv")
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.StringIO(raw.read_bytes().decode()))
        infile = str(raw) if source == "file" else "-"
        assert main(["ingest", "--in", infile,
                     "--out", str(tmp_path / "session.csv")]) == 0
        assert (tmp_path / "session.csv").read_bytes() == \
            (tmp_path / "expected.csv").read_bytes()

    def test_svm_train_classify_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        x, y, conc = separable_features(rng)
        feat = tmp_path / "features.csv"
        write_features_csv(feat, x, y, conc)

        model = tmp_path / "out.svm"
        rc = main(["train-svm", "--in", str(feat), "--model", str(model)])
        assert rc == 0

        report = tmp_path / "report.csv"
        rc = main(["classify", "--model", str(model), "--in", str(feat),
                   "--report", str(report)])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "# accuracy = 1.0"
        assert lines[1] == "index,label,predicted"
        assert len(lines) == 2 + x.shape[0]

    def test_mlp_train_predict_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        x, y, conc = separable_features(rng)
        feat = tmp_path / "features.csv"
        write_features_csv(feat, x, y, conc)

        conf = tmp_path / "mlp.conf"
        conf.write_text("mlp_hidden = 8\nmlp_lr = 0.1\nmlp_epochs = 60\n")
        model = tmp_path / "out.mlp"
        rc = main(["train-mlp", "--in", str(feat), "--config", str(conf),
                   "--seed", "0", "--model", str(model)])
        assert rc == 0

        report = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model), "--in", str(feat),
                   "--report", str(report)])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0].startswith("# rmse_ppm = ")
        assert lines[3] == "index,true_ppm,pred_ppm"

    def test_bench_smoke_with_config_file(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("noise_sigma = 0.0\nmlp_epochs = 10\nsvm_gamma = auto\n")
        out = tmp_path / "results"
        rc = main(["bench", "--table", "ternary", "--seed", "1",
                   "--out", str(out), "--config", str(conf)])
        assert rc == 0
        metrics = read_metrics_csv(out / "metrics.csv")
        assert metrics["accuracy"] == 1.0  # noiseless
        for name in ("features_train.csv", "features_test.csv",
                     "scatter.svg", "classification.svg", "predictions.csv"):
            assert (out / name).exists()
        assert "accuracy=1.0000" in capsys.readouterr().out

    def test_echo_block_as_config_file_reproduces_the_run(self, tmp_path):
        small = tmp_path / "small.cfg"
        small.write_text("mlp_epochs = 5\n")
        argv = ["bench", "--table", "binary-ethanol", "--seed", "42", "--regression"]
        assert main(argv + ["--config", str(small), "--out", str(tmp_path / "a")]) == 0
        metrics = (tmp_path / "a" / "metrics.csv").read_bytes()
        not_settings = ("table", "seed", "n_train", "n_test", "note")
        echo = [line[2:] for line in metrics.decode().splitlines()
                if " = " in line and line[2:].partition(" = ")[0] not in not_settings]
        assert len(echo) == len(PipelineConfig().echo())
        echoed = tmp_path / "echo.cfg"
        echoed.write_text("\n".join(echo) + "\n")
        assert main(argv + ["--config", str(echoed), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "metrics.csv").read_bytes() == metrics


def pred_column(path) -> list[str]:
    """Column 2 (the predicted label or ppm) of a report CSV, as text, below
    its comment lines and header."""
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [row.split(",")[2] for row in rows[1:]]


def bench_then_cli(tmp_path, table: str, config_text: str, regression: bool):
    """Run bench, then train-* on its features_train.csv and classify/predict
    on its features_test.csv, with the same config file and seed.  Returns
    the predicted column of the CLI's report and of bench's predictions.csv."""
    conf = tmp_path / "run.conf"
    conf.write_text(config_text)
    out = tmp_path / "bench"
    task = ["--regression"] if regression else []
    assert main(["bench", "--table", table, "--seed", "42", "--out", str(out),
                 "--config", str(conf), *task]) == 0
    model, report = tmp_path / "chain.model", tmp_path / "report.csv"
    if regression:
        train, apply, seed = "train-mlp", "predict", ["--seed", "42"]
    else:
        train, apply, seed = "train-svm", "classify", []
    assert main([train, "--in", str(out / "features_train.csv"), "--model", str(model),
                 "--config", str(conf), *seed]) == 0
    assert main([apply, "--model", str(model), "--in", str(out / "features_test.csv"),
                 "--report", str(report)]) == 0
    return pred_column(report), pred_column(out / "predictions.csv")


class TestCliRoundTrip:
    """bench -> features CSVs -> train-* -> classify/predict, at bench's settings.

    The features CSVs hold the 12 raw features.  `train-svm`/`train-mlp`
    fit on them the chain bench fits (`bench.fit_front`'s standardize and
    PCA or KPCA, then the model), from the same config file and seed, and
    `classify`/`predict` apply the saved chain.  So the CLI's label or ppm
    column is bench's `predictions.csv` column, text for text.
    """

    def test_bench_features_through_train_svm_and_classify(self, tmp_path):
        cli, bench = bench_then_cli(tmp_path, "ternary", "features = pca\n", False)
        assert len(cli) == 50 and cli == bench

    def test_kpca_bench_features_through_train_svm_and_classify(self, tmp_path):
        cli, bench = bench_then_cli(tmp_path, "ternary", "features = kpca\n", False)
        assert len(cli) == 50 and cli == bench

    def test_regression_bench_features_through_train_mlp_and_predict(self, tmp_path):
        cli, bench = bench_then_cli(tmp_path, "binary-ethanol", "mlp_epochs = 5\n", True)
        assert len(cli) == 80 and cli == bench


def corrupted_copies(lines: list[str], cuts=None):
    """(case, lines) for every corruption of a file's lines: cut before each
    line index in `cuts` (every line when None), each line missing, each
    line doubled, and each line with its first character replaced by
    \xff."""
    for i in range(len(lines)) if cuts is None else cuts:
        yield f"cut before line {i + 1}", lines[:i]
    for i in range(len(lines)):
        yield f"line {i + 1} missing", lines[:i] + lines[i + 1:]
        yield f"line {i + 1} doubled", lines[:i + 1] + lines[i:]
        yield f"line {i + 1} starts with \\xff", [*lines[:i], "\xff" + lines[i][1:],
                                                 *lines[i + 1:]]


def failures_of(main_argv, path, cases, capsys, allow_success: bool,
                tag: str = "error [stage="):
    """Write each case's lines to `path` and run `enose main_argv`; the
    cases that did not end in exit 2 with a message starting with `tag`
    (or in exit 0, when `allow_success`), or that printed a traceback."""
    failures = []
    for case, corrupted in cases:
        path.write_text("".join(line + "\n" for line in corrupted))
        capsys.readouterr()
        rc = main(main_argv)
        err = capsys.readouterr().err
        stage_tagged = rc == 2 and err.startswith(tag)
        if not (stage_tagged or (allow_success and rc == 0)) or "Traceback" in err:
            failures.append((case, rc, err))
    return failures


# (chain, section, edited key, new value) of each model-file edit that
# parses but contradicts another field of the chain
EDITS = [
    ("pca-svm", "svm", "kernel", "poly"),
    ("pca-svm", "svm", "gamma", "none"),
    ("pca-svm", "pca", "retained_k", "99"),
    ("pca-svm", "pca", "retained_k", "0"),
    ("kpca-svm", "kpca", "retained_k", "99"),
    ("pca-svm", "svm", "c_penalty", "-5"),
    ("pca-svm", "svm", "c_penalty", "0"),
    ("pca-svm", "svm", "dual_coef", "1.0"),
    ("kpca-svm", "kpca", "gamma", "-1.0"),
    ("kpca-svm", "kpca", "gamma", "0.0"),
    ("pca-svm", "standardizer", "std", "each 0.0"),
    ("pca-svm", "standardizer", "std", "each -1.0"),
    ("pca-mlp", "mlp", "target_scale", "0.0"),
    ("pca-svm", "standardizer", "mean", "1.0"),
    ("pca-svm", "pca", "mean", "1.0 2.0"),
    ("pca-svm", "pca", "eigenvalues", "1.0"),
    ("kpca-svm", "kpca", "train_row_means", "1.0"),
    ("kpca-svm", "kpca", "eigenvalues", "1.0"),
    ("pca-mlp", "mlp", "bias0", "1.0"),
    ("pca-mlp", "mlp", "bias1", "1.0 2.0"),
    ("pca-mlp", "mlp", "hidden", "3"),
    ("pca-mlp", "mlp", "mean", "1.0"),
    ("pca-mlp", "mlp", "std", "each 0.0"),
    ("pca-svm", "svm", "classes", "1 2"),
    ("kpca-svm", "svm", "classes", "2 1 3"),
    ("pca-svm", "svm", "pair", "1 9"),
    ("pca-svm", "pca", "retained_k", "2"),
    ("pca-mlp", "pca", "retained_k", "2"),
]


# what one token of a saved chain is replaced with; "" drops the token
TOKEN_EDITS = ["nan", "-1", "0", "1e308", "none", "poly", str(2**64), ""]


@pytest.fixture(scope="module")
def saved_chains(tmp_path_factory):
    """(directory, features CSV, chain -> lines of its model file), each
    chain trained once by the CLI."""
    out = tmp_path_factory.mktemp("chains")
    x, y, t = training_data()
    feat = out / "features.csv"
    write_features_csv(feat, x, y, np.column_stack([t, 0 * t, 0 * t]))
    chains = {}
    for chain in ("pca-svm", "kpca-svm", "pca-mlp"):
        features, head = chain.split("-")
        conf = out / "run.conf"
        conf.write_text(f"features = {features}\nmlp_epochs = 5\n")
        model = out / f"{chain}.model"
        assert main([f"train-{head}", "--in", str(feat), "--model", str(model),
                     "--config", str(conf)]) == 0
        chains[chain] = model.read_text().splitlines()
    return out, feat, chains


class TestModelFileCorruption:
    """Every corrupted chain file ends `classify`/`predict` with exit 2 and
    a stage-tagged message: none loads, and none ends in a traceback."""

    @pytest.mark.parametrize("config_text, train, apply", [
        ("features = pca\n", "train-svm", "classify"),
        ("features = kpca\nmlp_epochs = 5\n", "train-mlp", "predict"),
    ], ids=["pca-svm", "kpca-mlp"])
    def test_every_corruption_rejected(self, tmp_path, capsys, config_text, train, apply):
        x, y, conc = separable_features(np.random.default_rng(1))
        feat = tmp_path / "features.csv"
        write_features_csv(feat, x, y, conc)
        conf = tmp_path / "run.conf"
        conf.write_text(config_text)
        model = tmp_path / "chain.model"
        assert main([train, "--in", str(feat), "--model", str(model),
                     "--config", str(conf)]) == 0
        lines = model.read_text().splitlines()
        sections = [i for i, line in enumerate(lines) if line.startswith("section ")]
        assert len(sections) == 3

        bad = tmp_path / "bad.model"
        report = tmp_path / "report.csv"
        cases = [*corrupted_copies(lines, cuts=sections),
                 ("v1 header", ["enose-model v1 svm", *lines[1:]]),
                 ("inf in the standardizer mean",
                  [*lines[:2], lines[2].rsplit(" ", 1)[0] + " inf", *lines[3:]]),
                 ("nan as the last number", [*lines[:-1], lines[-1].rsplit(" ", 1)[0] + " nan"])]
        argv = [apply, "--model", str(bad), "--in", str(feat), "--report", str(report)]
        failures = failures_of(argv, bad, cases, capsys, allow_success=False,
                               tag=f"error [stage={apply}] ")
        assert failures == []
        assert not report.exists()

    @pytest.mark.parametrize("chain, section, key, value", EDITS, ids=[
        f"{chain.removesuffix('-svm')}-{key}-{value}" for chain, _, key, value in EDITS])
    def test_edited_field_is_named(self, tmp_path, capsys, chain, section, key, value):
        # each edit parses, but contradicts another field of the chain;
        # "each v" sets every number of the field's line to v
        x, y, t = training_data()
        feat = tmp_path / "features.csv"
        write_features_csv(feat, x, y, np.column_stack([t, 0 * t, 0 * t]))
        features, head = chain.split("-")
        train, apply = ("train-svm", "classify") if head == "svm" else ("train-mlp", "predict")
        conf = tmp_path / "run.conf"
        conf.write_text(f"features = {features}\nmlp_epochs = 5\n")
        model = tmp_path / "chain.model"
        assert main([train, "--in", str(feat), "--model", str(model),
                     "--config", str(conf)]) == 0
        lines = model.read_text().splitlines()
        start = lines.index(f"section {section}")
        i = next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key} "))
        if value.startswith("each "):
            value = " ".join(value[5:] for _ in lines[i].split()[1:])
        model.write_text("\n".join([*lines[:i], f"{key} {value}", *lines[i + 1:]]) + "\n")
        capsys.readouterr()
        rc = main([apply, "--model", str(model), "--in", str(feat),
                   "--report", str(tmp_path / "report.csv")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(f"error [stage={apply}] ") and key in err
        assert "Traceback" not in err and "NoneType" not in err


    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_token_edit_loads_or_names_its_place(self, saved_chains, data):
        # one token replaced; a valid edit such as `bias 0` may change the
        # predictions, so exit 0 is enough
        out, feat, chains = saved_chains
        chain = data.draw(st.sampled_from(sorted(chains)))
        lines = chains[chain]
        keyed = [i for i, line in enumerate(lines) if line[:1].isalpha()]
        i = data.draw(st.sampled_from(keyed) | st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(
            st.sampled_from(TOKEN_EDITS))
        bad = out / "edited.model"
        bad.write_text("\n".join([*lines[:i], " ".join(tokens), *lines[i + 1:]]) + "\n")
        apply = "classify" if chain.endswith("svm") else "predict"
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as stderr:
            rc = main([apply, "--model", str(bad), "--in", str(feat),
                       "--report", str(out / "report.csv")])
        err = stderr.getvalue()
        named = err.startswith(f"error [stage={apply}] ") and ("section " in err or "line " in err)
        assert (rc == 0 or (rc == 2 and named)) and "Traceback" not in err, (
            chain, lines[i][:60], " ".join(tokens)[:60], rc, err)

    @pytest.mark.parametrize("key", ["target_scale", "target_min", "matrix weight1"])
    def test_overflowing_chain_writes_no_prediction(self, tmp_path, capsys,
                                                    saved_chains, key):
        # 1e308 loads, as every number is finite, then overflows on the way
        # to a prediction or its error; for a weight, the first of the output
        # layer's, as a hidden layer's sigmoid would absorb it
        _, feat, chains = saved_chains
        lines = list(chains["pca-mlp"])
        i = next(i for i, line in enumerate(lines) if line.startswith(f"{key} "))
        if key.startswith("matrix"):
            i += 1
            lines[i] = " ".join(["1e308", *lines[i].split(" ")[1:]])
        else:
            lines[i] = f"{key} 1e308"
        model, report = tmp_path / "huge.model", tmp_path / "pred.csv"
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--in", str(feat),
                   "--report", str(report)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(
            f"error [stage=predict] {model}: predictions or their errors overflow")
        assert "Traceback" not in err and not report.exists()

    @pytest.mark.parametrize("chain, key, what, section", [
        ("pca-svm", "matrix components", "scores", "pca"),
        ("kpca-svm", "matrix x_train", "scores", "kpca"),
        ("pca-svm", "matrix support_vectors", "SVM decision values", "svm"),
        ("pca-svm", "dual_coef", "SVM decision values", "svm"),
        ("pca-svm", "bias", "SVM decision values", "svm"),
    ])
    def test_overflowing_chain_writes_no_classification(self, tmp_path, capsys, saved_chains,
                                                        chain, key, what, section):
        # every number of each `key` line (of a matrix, its first row) set
        # to 1e308: it loads, as every number is finite, then overflows on
        # the way to a score or to a sum of the vote's decision values
        _, feat, chains = saved_chains
        lines = list(chains[chain])
        matrix = key.startswith("matrix")
        for i, line in enumerate(chains[chain]):
            if line.startswith(f"{key} "):
                j, keep = (i + 1, 0) if matrix else (i, 1)
                tokens = lines[j].split(" ")
                lines[j] = " ".join(tokens[:keep] + ["1e308"] * (len(tokens) - keep))
        model, report = tmp_path / "huge.model", tmp_path / "report.csv"
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["classify", "--model", str(model), "--in", str(feat),
                   "--report", str(report)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(
            f"error [stage=classify] {model}: {what} overflow; a value in section {section} ")
        assert "Traceback" not in err and not report.exists()


class TestInputCorruption:
    """Every corruption of a features CSV, a session CSV or a config file
    ends in exit 0 or in exit 2 with a stage-tagged message, and never in
    a traceback."""

    def test_features_csv_through_train_svm(self, tmp_path, capsys):
        x, y, conc = separable_features(np.random.default_rng(1), n_per=8)
        feat = tmp_path / "features.csv"
        write_features_csv(feat, x, y, conc)
        lines = feat.read_text().splitlines()
        argv = ["train-svm", "--in", str(feat), "--model", str(tmp_path / "out.model")]
        assert failures_of(argv, feat, corrupted_copies(lines), capsys,
                           allow_success=True) == []

    def test_session_csv_through_preprocess(self, tmp_path, capsys):
        session_csv = tmp_path / "session.csv"
        write_session(small_session(), session_csv)
        lines = session_csv.read_text().splitlines()
        argv = ["preprocess", "--in", str(session_csv),
                "--out", str(tmp_path / "processed.csv")]
        assert failures_of(argv, session_csv, corrupted_copies(lines), capsys,
                           allow_success=True) == []

    def test_config_file_through_train_svm(self, tmp_path, capsys):
        x, y, conc = separable_features(np.random.default_rng(1), n_per=8)
        feat = tmp_path / "features.csv"
        write_features_csv(feat, x, y, conc)
        conf = tmp_path / "run.conf"
        lines = [f"{key} = {value}" for key, value in PipelineConfig().echo()]
        argv = ["train-svm", "--in", str(feat), "--model", str(tmp_path / "out.model"),
                "--config", str(conf)]
        assert failures_of(argv, conf, corrupted_copies(lines), capsys,
                           allow_success=True) == []


class TestCliErrors:
    def test_stage_tagged_failure_and_nonzero_exit(self, tmp_path, capsys):
        rc = main(["ingest", "--in", str(tmp_path / "missing.txt"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc != 0
        assert "[stage=ingest]" in capsys.readouterr().err

    def test_malformed_stream_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\nmore garbage\n")
        rc = main(["ingest", "--in", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc != 0
        assert "malformed" in capsys.readouterr().err

    def test_trailing_model_content_rejected(self, tmp_path, capsys):
        x, y, conc = separable_features(np.random.default_rng(1))
        feat = tmp_path / "features.csv"
        write_features_csv(feat, x, y, conc)
        model = tmp_path / "out.svm"
        assert main(["train-svm", "--in", str(feat), "--model", str(model)]) == 0
        model.write_text(model.read_text() + "garbage here\n")
        rc = main(["classify", "--model", str(model), "--in", str(feat),
                   "--report", str(tmp_path / "report.csv")])
        assert rc == 2
        assert "[stage=classify]" in capsys.readouterr().err

    @pytest.mark.parametrize("train, apply, kind, use", [
        ("train-mlp", "classify", "mlp", "predict"),
        ("train-svm", "predict", "svm", "classify"),
    ])
    def test_model_file_of_the_other_task_rejected(self, tmp_path, capsys,
                                                   train, apply, kind, use):
        x, y, conc = separable_features(np.random.default_rng(1))
        feat = tmp_path / "features.csv"
        write_features_csv(feat, x, y, conc)
        model = tmp_path / "chain.model"
        assert main([train, "--in", str(feat), "--model", str(model)]) == 0
        rc = main([apply, "--model", str(model), "--in", str(feat),
                   "--report", str(tmp_path / "report.csv")])
        assert rc == 2
        assert (f"error [stage={apply}] {model} holds an {kind} model; "
                f"use `enose {use}`") in capsys.readouterr().err

    @pytest.mark.parametrize("column, value, message", [
        (N_FEATURES, "1.7", "not a whole number"),
        (0, "nan", "non-finite"),
        (0, "abc", "could not convert string to float: 'abc'"),
        (slice(-1, None), [], "bad features row: '"),    # the last field dropped
    ])
    def test_bad_features_rows_rejected(self, tmp_path, capsys, column, value, message):
        x, y, conc = separable_features(np.random.default_rng(1))
        feat = tmp_path / "features.csv"
        write_features_csv(feat, x, y, conc)
        lines = feat.read_text().splitlines()
        fields = lines[3].split(",")
        fields[column] = value
        lines[3] = ",".join(fields)
        feat.write_text("\n".join(lines) + "\n")
        rc = main(["train-svm", "--in", str(feat),
                   "--model", str(tmp_path / "out.svm")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "[stage=train-svm] line 4: " in err and message in err

    def test_config_parse_error_names_the_key(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("svm_gamma = fast\n")
        rc = main(["simulate", "--table", "ternary", "--per-row", "1",
                   "--out", str(tmp_path / "sessions"), "--config", str(conf)])
        assert rc == 2
        assert ("[stage=simulate] config key 'svm_gamma': could not convert "
                "string to float: 'fast'") in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("svm_kernel = poly", "unknown kernel 'poly'"),
        ("mlp_hidden = 0", "layer sizes must be >= 1"),
    ])
    def test_bad_model_setting_stops_bench_before_generate(self, tmp_path, capsys,
                                                           line, message):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        out = tmp_path / "results"
        rc = main(["bench", "--table", "ternary", "--out", str(out),
                   "--config", str(conf)])
        assert rc == 2
        assert f"[stage=bench] {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("noise_sigma = nan", "noise_sigma must be finite and >= 0"),
        ("variance_threshold = 2", r"variance_threshold must be in (0, 1]"),
        ("sample_rate_hz = -5", r"sample_rate_hz must be in (0, 1000]"),
    ])
    def test_bad_run_setting_stops_bench_before_generate(self, tmp_path, capsys,
                                                         line, message):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        out = tmp_path / "results"
        rc = main(["bench", "--table", "ternary", "--out", str(out),
                   "--config", str(conf)])
        assert rc == 2
        assert f"[stage=bench] {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("noise_sigma = -0.1", "noise_sigma must be finite and >= 0"),
        ("tau_fall = 0", "tau_fall must be > 0"),
        ("drift_rate = inf", "drift_rate must be finite"),
    ])
    def test_simulate_rejects_bad_run_setting(self, tmp_path, capsys, line, message):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        out = tmp_path / "sessions"
        rc = main(["simulate", "--table", "ternary", "--per-row", "1",
                   "--out", str(out), "--config", str(conf)])
        assert rc == 2
        assert f"[stage=simulate] {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_rejects_bad_svm_c(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("svm_c = -1\n")
        out = tmp_path / "sessions"
        rc = main(["simulate", "--table", "ternary", "--per-row", "1",
                   "--out", str(out), "--config", str(conf)])
        assert rc == 2
        assert "[stage=simulate] c_penalty must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_preprocess_checks_the_model_settings(self, tmp_path, capsys):
        session_csv = tmp_path / "session.csv"
        write_session(small_session(), session_csv)
        conf = tmp_path / "run.conf"
        conf.write_text("svm_c = -1\n")
        out = tmp_path / "processed.csv"
        rc = main(["preprocess", "--in", str(session_csv), "--out", str(out),
                   "--config", str(conf)])
        assert rc == 2
        assert "[stage=preprocess] c_penalty must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_given_twice_stops_bench(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("svm_c = 1\nsvm_c = 2\n")
        out = tmp_path / "results"
        rc = main(["bench", "--table", "ternary", "--out", str(out),
                   "--config", str(conf)])
        assert rc == 2
        assert "[stage=bench] line 2: key 'svm_c' given twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("meta, message", [
        ("labl=2\n", "unknown key 'labl'"),
        ("garbage line\n", "line 6: expected 'key = value', got 'garbage line'"),
        ("label=2\n", "line 6: key 'label' given twice"),
    ], ids=["misspelt-key", "garbage-line", "key-twice"])
    def test_bad_meta_sidecar_stops_preprocess(self, tmp_path, capsys, meta, message):
        session_csv = tmp_path / "session.csv"
        write_session(small_session(), session_csv)
        sidecar = tmp_path / "session.meta"
        sidecar.write_text(sidecar.read_text() + meta)
        out = tmp_path / "processed.csv"
        rc = main(["preprocess", "--in", str(session_csv), "--out", str(out)])
        assert rc == 2
        assert f"[stage=preprocess] {sidecar}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_table(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--table", "quaternary", "--out", "x"])
