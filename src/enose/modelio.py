"""Versioned flat-text serialization for a fitted detector chain.

A model file holds one chain: the fitted front half of `bench` (feature
standardizer, then PCA or KPCA) and the model trained on its scores (a
one-vs-one SVM or an MLP).  It starts with the header line

    enose-model v2

followed by three sections, in order, each opened by a `section <name>`
line: `standardizer`, then `pca` or `kpca`, then `svm` or `mlp`.  The
body is line oriented: `key value...` scalars, and matrices as a `matrix
<name> <rows> <cols>` line followed by one space-separated row per line.
Floats are written with repr() so a save/load round trip reproduces the
chain bit for bit; a nan or inf is an error.  One table of fields per
flat section type drives its writing and reading; `svm` and `mlp` nest
them in code of their own.  The file is read with `checks.text_lines`:
blank lines and `#` comments are skipped, each line is stripped of ASCII
whitespace, and a non-ASCII or line-break character outside a comment is
an error.  A read error names its section, and its line where it is
about one.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .bench import FittedFront
from .checks import (check_sizes, is_integer_text, parse_float, read_text, text_lines,
                     write_lines)
from .features import KpcaModel, PcaModel
from .mlp import MlpConfig, MlpModel
from .preprocess import Standardizer
from .svm import BinarySvm, SvmModel

FORMAT_VERSION = "v2"


def _vec(values) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(values, dtype=float).ravel())


def _mat_lines(name: str, m) -> list[str]:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return [f"matrix {name} {m.shape[0]} {m.shape[1]}", *(_vec(row) for row in m)]


class _Reader:
    def __init__(self, text: str):
        self.lines = text_lines(text)
        self.pos = 0   # the number of the last line read

    def next(self) -> str:
        try:
            self.pos, line = next(self.lines)
        except StopIteration:
            raise ValueError("unexpected end of model file") from None
        return line

    def field(self, key: str) -> str:
        line = self.next()
        name, _, rest = line.partition(" ")
        if name != key:
            raise ValueError(f"line {self.pos}: expected field {key!r}, found {name!r}")
        return rest

    def floats(self, text: str) -> np.ndarray:
        """The numbers in `text`, part of the last line read; all finite."""
        try:
            values = np.array([parse_float(v) for v in text.split()])
        except ValueError as exc:
            raise ValueError(f"line {self.pos}: {exc}") from None
        if not np.isfinite(values).all():
            raise ValueError(f"line {self.pos}: non-finite number")
        return values

    def number(self, text: str) -> float:
        if (values := self.floats(text)).size != 1:
            raise ValueError(f"line {self.pos}: expected one number")
        return float(values[0])

    def ints(self, text: str) -> tuple[int, ...]:
        """The space-separated integers in `text`, part of the last line read,
        each spelt as `save_model` writes it: an optional "-", then ASCII digits."""
        values = text.split(" ")
        if not all(is_integer_text(v) for v in values):
            raise ValueError(f"line {self.pos}: expected integers, found {text!r}")
        return tuple(int(v) for v in values)

    def integer(self, text: str) -> int:
        if len(values := self.ints(text)) != 1:
            raise ValueError(f"line {self.pos}: expected one integer")
        return values[0]

    def flags(self, text: str) -> np.ndarray:
        if any(v not in ("0", "1") for v in text.split()):
            raise ValueError(f"line {self.pos}: flags must be 0 or 1")
        return np.array([v == "1" for v in text.split()])

    def mat(self, name: str) -> np.ndarray:
        """A `matrix <name> <rows> <cols>` block, built from the rows it holds."""
        header = self.next().split()
        if len(header) != 4 or header[0] != "matrix" or header[1] != name:
            raise ValueError(f"line {self.pos}: expected matrix {name!r}, found {header!r}")
        if not all(v.isascii() and v.isdigit() for v in header[2:]):
            raise ValueError(f"line {self.pos}: matrix sizes must be non-negative integers")
        rows, cols = int(header[2]), int(header[3])
        m = []
        for _ in range(rows):   # one row at a time, so an overstated count allocates nothing
            m.append(self.floats(self.next()))
            if m[-1].size != cols:
                raise ValueError(f"line {self.pos}: expected {cols} numbers")
        return np.array(m).reshape(rows, cols)


def _scalar(write, read):
    # a kind held on one `name text` line: write(value) -> text, read(r, text) -> value
    return (lambda name, value: [f"{name} {write(value)}"],
            lambda r, name: read(r, r.field(name)))


# Value kind -> (write, read): the lines of a named field, and its value
# read back from them.
_KINDS = {
    "int": _scalar(str, _Reader.integer),
    "float": _scalar(repr, _Reader.number),
    "float|none": _scalar(lambda v: "none" if v is None else repr(v),
                          lambda r, text: None if text == "none" else r.number(text)),
    "str": _scalar(str, lambda r, text: text),
    "vector": _scalar(_vec, _Reader.floats),
    "flags": _scalar(lambda v: " ".join(str(int(c)) for c in v), _Reader.flags),
    "matrix": (_mat_lines, _Reader.mat),
}

# Flat section type -> its fields, (name, kind), in file order.
_FIELDS = {
    Standardizer: (("mean", "vector"), ("std", "vector"), ("constant", "flags")),
    PcaModel: (("retained_k", "int"), ("mean", "vector"), ("eigenvalues", "vector"),
               ("components", "matrix")),
    KpcaModel: (("retained_k", "int"), ("gamma", "float"), ("train_total_mean", "float"),
                ("eigenvalues", "vector"), ("train_row_means", "vector"),
                ("x_train", "matrix"), ("alphas", "matrix")),
    BinarySvm: (("kernel", "str"), ("gamma", "float|none"), ("c_penalty", "float"),
                ("bias", "float"), ("n_iter", "int"), ("objective", "float"),
                ("dual_coef", "vector"), ("support_vectors", "matrix")),
}


def _field_lines(part) -> list[str]:
    return [line for name, kind in _FIELDS[type(part)]
            for line in _KINDS[kind][0](name, getattr(part, name))]


def _read_fields(cls, r: _Reader):
    return cls(**{name: _KINDS[kind][1](r, name) for name, kind in _FIELDS[cls]})


def _svm_lines(m: SvmModel) -> list[str]:
    lines = ["classes " + " ".join(str(c) for c in m.classes), f"pairs {len(m.machines)}"]
    for (ci, cj), machine in m.machines:
        lines += [f"pair {ci} {cj}", *_field_lines(machine)]
    return lines


def _read_svm(r: _Reader) -> SvmModel:
    classes = r.ints(r.field("classes"))
    n_pairs = r.integer(r.field("pairs"))
    machines = []
    for _ in range(n_pairs):
        ci, cj = r.ints(r.field("pair"))
        machines.append(((ci, cj), _read_fields(BinarySvm, r)))
    return SvmModel(classes=classes, machines=tuple(machines))


def _mlp_lines(m: MlpModel) -> list[str]:
    cfg = m.config
    lines = [f"input_dim {m.weights[0].shape[0]}",
             f"hidden {cfg.hidden}",
             f"lr {cfg.lr!r}", f"epochs {cfg.epochs}", f"seed {cfg.seed}",
             f"target_min {m.target_min!r}", f"target_scale {m.target_scale!r}",
             *_field_lines(m.standardizer),
             f"loss_trace {_vec(m.loss_trace)}", f"layers {len(m.weights)}"]
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        lines += [*_mat_lines(f"weight{i}", w), f"bias{i} {_vec(b)}"]
    return lines


def _read_mlp(r: _Reader) -> MlpModel:
    input_dim = r.integer(r.field("input_dim"))
    hidden = r.integer(r.field("hidden"))
    lr = r.number(r.field("lr"))
    epochs = r.integer(r.field("epochs"))
    seed = r.integer(r.field("seed"))
    target_min = r.number(r.field("target_min"))
    target_scale = r.number(r.field("target_scale"))
    std = _read_fields(Standardizer, r)
    loss_trace = r.floats(r.field("loss_trace"))
    layers = [(r.mat(f"weight{i}"), r.floats(r.field(f"bias{i}")))
              for i in range(r.integer(r.field("layers")))]
    if not layers or layers[0][0].shape[0] != input_dim:
        raise ValueError(f"input_dim {input_dim} does not match the first weight matrix")
    cfg = MlpConfig(hidden=hidden, lr=lr, epochs=epochs, seed=seed)
    return MlpModel(weights=tuple(w for w, _ in layers), biases=tuple(b for _, b in layers),
                    standardizer=std, target_min=target_min,
                    target_scale=target_scale, loss_trace=loss_trace, config=cfg)


# Section name -> fitted type, per slot of the chain.
_STANDARDIZER = {"standardizer": Standardizer}
_REDUCERS = {"pca": PcaModel, "kpca": KpcaModel}
_MODELS = {"svm": SvmModel, "mlp": MlpModel}
# Fitted type -> (writer, reader) of its section's body.
_CODECS = {cls: (_field_lines, partial(_read_fields, cls)) for cls in _FIELDS}
_CODECS.update({SvmModel: (_svm_lines, _read_svm), MlpModel: (_mlp_lines, _read_mlp)})


def _section_lines(part, sections) -> list[str]:
    for name, cls in sections.items():
        if isinstance(part, cls):
            return [f"section {name}", *_CODECS[cls][0](part)]
    raise TypeError(f"cannot serialize {type(part).__name__} "
                    f"as a {' or '.join(sections)} section")


def _read_section(r: _Reader, sections):
    """(name, fitted part) of the next section, which must be one of `sections`."""
    name = r.field("section")
    if name not in sections:
        raise ValueError(f"line {r.pos}: expected a {' or '.join(sections)} section, "
                         f"found {name!r}")
    try:
        return name, _CODECS[sections[name]][1](r)
    except ValueError as exc:
        raise ValueError(f"section {name}: {exc}") from None


def save_model(front: FittedFront, model: SvmModel | MlpModel, path) -> None:
    """Write the chain `front` -> `model` as one model file."""
    lines = [f"enose-model {FORMAT_VERSION}",
             *_section_lines(front.standardizer, _STANDARDIZER),
             *_section_lines(front.reducer, _REDUCERS),
             *_section_lines(model, _MODELS)]
    write_lines(path, lines)


def load_model(path) -> tuple[FittedFront, SvmModel | MlpModel]:
    """Read a model file back into (front, model)."""
    reader = _Reader(read_text(path))
    header = reader.next().split()
    if header[:1] == ["enose-model"] and header[1:2] not in ([], [FORMAT_VERSION]):
        raise ValueError(f"line {reader.pos}: unsupported model format version {header[1]}")
    if header != ["enose-model", FORMAT_VERSION]:
        raise ValueError(f"line {reader.pos}: {path} is not a model file")
    _, standardizer = _read_section(reader, _STANDARDIZER)
    reducer_name, reducer = _read_section(reader, _REDUCERS)
    width = len(reducer.mean) if reducer_name == "pca" else reducer.x_train.shape[1]
    check_sizes({"section standardizer mean": len(standardizer.mean),
                 f"section {reducer_name} input width": width})
    model_name, model = _read_section(reader, _MODELS)
    width = (model.weights[0].shape[0] if isinstance(model, MlpModel)
             else model.machines[0][1].support_vectors.shape[1])
    check_sizes({f"section {reducer_name} retained_k": reducer.retained_k,
                 f"section {model_name} input width": width})
    if extra := next(reader.lines, None):
        raise ValueError(f"line {extra[0]}: unexpected content after the model")
    return FittedFront(standardizer=standardizer, reducer=reducer), model
