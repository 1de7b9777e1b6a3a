import dataclasses

import numpy as np
import pytest

from enose import mlp
from enose.bench import PipelineConfig, fit_front
from enose.cli import main
from enose.features import write_features_csv
from enose.modelio import load_model, save_model
from enose.svm import svm_predict, svm_train_multiclass


def training_data():
    """Three clusters of 12 features, column 2 constant, with a ppm target."""
    rng = np.random.default_rng(3)
    x = np.vstack([rng.normal(c, 0.4, (10, 12)) for c in (0.0, 3.0, (0, 3) * 6)])
    x[:, 2] = 7.0
    y = np.repeat([1, 2, 3], 10)
    t = rng.uniform(0, 50, 30)
    return x, y, t


def fit_chain(features: str, head: str):
    """(front, model) fitted as `train-svm`/`train-mlp` fit them."""
    x, y, t = training_data()
    config = PipelineConfig(features=features, mlp_epochs=20)
    front = fit_front(x, config)
    z = front.scores(x)
    if head == "svm":
        return front, svm_train_multiclass(z, y, config.svm_params())
    return front, mlp.mlp_train(z, t, config.mlp_config(seed=2))


def assert_identical(a, b):
    """Same structure, with every array and float equal bit for bit."""
    if dataclasses.is_dataclass(a) or isinstance(a, tuple):
        assert type(a) is type(b)
        pairs = ([(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)]
                 if dataclasses.is_dataclass(a) else list(zip(a, b, strict=True)))
        for u, v in pairs:
            assert_identical(u, v)
    elif isinstance(a, (np.ndarray, float)):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    else:
        assert a == b


def assert_round_trip(tmp_path, front, model):
    path, again_path = tmp_path / "chain.model", tmp_path / "again.model"
    save_model(front, model, path)
    front_again, model_again = load_model(path)
    assert_identical(front_again, front)
    assert_identical(model_again, model)
    save_model(front_again, model_again, again_path)
    assert again_path.read_bytes() == path.read_bytes()


def test_header_and_unknown_kind(tmp_path):
    path = tmp_path / "junk.model"
    path.write_text("not a model\n")
    with pytest.raises(ValueError, match="not a model file"):
        load_model(path)
    path.write_text("enose-model v9\n")
    with pytest.raises(ValueError, match="version v9"):
        load_model(path)
    path.write_text("enose-model v1 svm\n")
    with pytest.raises(ValueError, match="unsupported model format version v1"):
        load_model(path)

    front, model = fit_chain("pca", "svm")
    save_model(front, model, path)
    path.write_text(path.read_text().replace("section svm", "section tree"))
    with pytest.raises(ValueError, match="expected a svm or mlp section, found 'tree'"):
        load_model(path)
    with pytest.raises(TypeError, match="cannot serialize object"):
        save_model(front, object(), path)


def test_mlp_input_dim_must_match_first_weights(tmp_path):
    front, model = fit_chain("pca", "mlp")
    path = tmp_path / "chain.model"
    save_model(front, model, path)
    width = model.weights[0].shape[0]
    path.write_text(path.read_text().replace(f"input_dim {width}\n",
                                             f"input_dim {width + 1}\n"))
    with pytest.raises(ValueError, match=f"input_dim {width + 1} does not match"):
        load_model(path)


@pytest.mark.parametrize("matrix, sizes, message", [
    # the last matrix of the file: a count beyond it ends at the file's end
    ("support_vectors", "1000000000000 {cols}", "section svm: unexpected end of model file"),
    ("support_vectors", "{rows_1} {cols}", "section svm: unexpected end of model file"),
    ("components", "1000000000000 {cols}",
     "section pca: line {next}: could not convert string to float: 'section'"),
    ("components", "-3 {cols}", "section pca: line {at}: matrix sizes must be non-negative"),
    ("components", "{rows} -3", "section pca: line {at}: matrix sizes must be non-negative"),
    ("components", "{rows} 1e3", "section pca: line {at}: matrix sizes must be non-negative"),
    ("components", "{rows} none", "section pca: line {at}: matrix sizes must be non-negative"),
    ("components", "{rows} 1000000000000", "section pca: line {after}: expected 1000000000000"),
])
def test_matrix_header_edits_rejected(tmp_path, matrix, sizes, message):
    # the sizes come from the header as the file states them; none allocates
    front, model = fit_chain("pca", "svm")
    path = tmp_path / "chain.model"
    save_model(front, model, path)
    lines = path.read_text().splitlines()
    at = max(i for i, line in enumerate(lines) if line.startswith(f"matrix {matrix} "))
    rows, cols = (int(v) for v in lines[at].split()[2:])
    lines[at] = f"matrix {matrix} " + sizes.format(rows=rows, rows_1=rows + 1, cols=cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert str(info.value).startswith(
        message.format(at=at + 1, after=at + 2, next=at + rows + 2))


def test_standardizer_round_trip(tmp_path):
    x, _, _ = training_data()
    front, model = fit_chain("pca", "svm")
    save_model(front, model, tmp_path / "chain.model")
    again, _ = load_model(tmp_path / "chain.model")
    assert np.flatnonzero(again.standardizer.constant).tolist() == [2]
    assert np.array_equal(again.standardizer.transform(x), front.standardizer.transform(x))


def test_pca_round_trip(tmp_path):
    for head in ("svm", "mlp"):
        assert_round_trip(tmp_path, *fit_chain("pca", head))
        sections = [line for line in (tmp_path / "chain.model").read_text().splitlines()
                    if line.startswith("section ")]
        assert sections == ["section standardizer", "section pca", f"section {head}"]


def test_kpca_round_trip(tmp_path):
    for head in ("svm", "mlp"):
        assert_round_trip(tmp_path, *fit_chain("kpca", head))


def test_svm_round_trip(tmp_path):
    front, model = fit_chain("pca", "svm")
    save_model(front, model, tmp_path / "chain.model")
    front_again, model_again = load_model(tmp_path / "chain.model")
    probe = np.random.default_rng(4).normal(1.5, 2.0, (30, 12))
    for rows in (probe, probe[:1]):   # BLAS takes another path for one row
        assert front_again.scores(rows).tobytes() == front.scores(rows).tobytes()
        assert np.array_equal(svm_predict(model_again, front_again.scores(rows)),
                              svm_predict(model, front.scores(rows)))


def test_mlp_round_trip(tmp_path):
    front, model = fit_chain("kpca", "mlp")
    save_model(front, model, tmp_path / "chain.model")
    front_again, model_again = load_model(tmp_path / "chain.model")
    probe = np.random.default_rng(5).normal(1.5, 2.0, (30, 12))
    for rows in (probe, probe[:1]):
        assert np.array_equal(mlp.mlp_forward(model_again, front_again.scores(rows)),
                              mlp.mlp_forward(model, front.scores(rows)))
    assert model_again.config == model.config


@pytest.mark.parametrize("hidden, message", [
    ("8 4", "expected one integer"),
    ("", "expected integers, found ''"),
], ids=["two-widths", "empty"])
def test_mlp_hidden_must_be_one_width(tmp_path, capsys, hidden, message):
    # the network has one hidden layer, so `hidden` holds one width
    x, y, t = training_data()
    feat = tmp_path / "features.csv"
    write_features_csv(feat, x, y, np.column_stack([t, 0 * t, 0 * t]))
    path = tmp_path / "chain.model"
    save_model(*fit_chain("pca", "mlp"), path)
    lines = path.read_text().splitlines()
    at = lines.index("hidden 16")
    lines[at] = f"hidden {hidden}"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["predict", "--model", str(path), "--in", str(feat),
               "--report", str(tmp_path / "report.csv")])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert err.startswith(f"error [stage=predict] section mlp: line {at + 1}: {message}")


# (chain, section, key, value): an integer field spelt as `save_model` never
# writes it, each of which int() would read; a non-ASCII digit is refused
# with its line, before the field is read
INTEGER_SPELLINGS = [
    *(("pca-svm", "pca", "retained_k", value) for value in ("0_3", "+3", "٣", "3.0", "")),
    ("pca-svm", "svm", "pairs", "+3"),
    ("pca-svm", "svm", "pair", "1 0_2"),
    ("pca-svm", "svm", "classes", "1 2 ٣"),
    ("pca-svm", "svm", "n_iter", " 5"),
    ("pca-mlp", "mlp", "hidden", "1_6"),
    ("pca-mlp", "mlp", "layers", "2.0"),
    ("pca-mlp", "mlp", "seed", "+2"),
]


@pytest.mark.parametrize("chain, section, key, value", INTEGER_SPELLINGS)
def test_integer_fields_are_read_strictly(tmp_path, chain, section, key, value):
    path = tmp_path / "chain.model"
    save_model(*fit_chain(*chain.split("-")), path)
    lines = path.read_text().splitlines()
    at = next(i for i in range(lines.index(f"section {section}"), len(lines))
              if lines[i].startswith(f"{key} "))
    lines[at] = f"{key} {value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load_model(path)
    digit = next((c for c in value if not c.isascii()), None)
    problem = (f"non-ASCII character {digit!r}" if digit
               else f"expected integers, found {value!r}")
    assert str(info.value) == f"section {section}: line {at + 1}: {problem}"
