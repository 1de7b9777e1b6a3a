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
chain bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .bench import FittedFront
from .features import KpcaModel, PcaModel
from .mlp import MlpConfig, MlpModel
from .preprocess import Standardizer
from .svm import BinarySvm, SvmModel

FORMAT_VERSION = "v2"


def _vec(values) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(values, dtype=float).ravel())


def _mat_lines(name: str, m) -> list[str]:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    lines = [f"matrix {name} {m.shape[0]} {m.shape[1]}"]
    lines.extend(" ".join(repr(float(v)) for v in row) for row in m)
    return lines


class _Reader:
    def __init__(self, lines: list[str]):
        self.lines = [ln.rstrip("\n") for ln in lines]
        self.pos = 0

    def next(self) -> str:
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        if self.pos >= len(self.lines):
            raise ValueError("unexpected end of model file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def field(self, key: str) -> str:
        line = self.next()
        name, _, rest = line.partition(" ")
        if name != key:
            raise ValueError(f"expected field {key!r}, found {name!r}")
        return rest

    def vec(self, key: str) -> np.ndarray:
        rest = self.field(key)
        return np.array([float(v) for v in rest.split()]) if rest else np.array([])

    def mat(self, name: str) -> np.ndarray:
        header = self.next().split()
        if len(header) != 4 or header[0] != "matrix" or header[1] != name:
            raise ValueError(f"expected matrix {name!r}, found {header!r}")
        rows, cols = int(header[2]), int(header[3])
        m = np.empty((rows, cols))
        for i in range(rows):
            m[i] = [float(v) for v in self.next().split()]
        return m


def _standardizer_lines(s: Standardizer) -> list[str]:
    return [
        f"mean {_vec(s.mean)}",
        f"std {_vec(s.std)}",
        "constant " + " ".join(str(int(c)) for c in s.constant),
    ]


def _read_standardizer(r: _Reader) -> Standardizer:
    mean = r.vec("mean")
    std = r.vec("std")
    constant = np.array([bool(int(v)) for v in r.field("constant").split()])
    return Standardizer(mean=mean, std=std, constant=constant)


def _pca_lines(m: PcaModel) -> list[str]:
    return [
        f"retained_k {m.retained_k}",
        f"mean {_vec(m.mean)}",
        f"eigenvalues {_vec(m.eigenvalues)}",
        *_mat_lines("components", m.components),
    ]


def _read_pca(r: _Reader) -> PcaModel:
    retained = int(r.field("retained_k"))
    mean = r.vec("mean")
    eigenvalues = r.vec("eigenvalues")
    components = r.mat("components")
    return PcaModel(mean=mean, components=components,
                    eigenvalues=eigenvalues, retained_k=retained)


def _kpca_lines(m: KpcaModel) -> list[str]:
    return [
        f"retained_k {m.retained_k}",
        f"gamma {m.gamma!r}",
        f"train_total_mean {m.train_total_mean!r}",
        f"eigenvalues {_vec(m.eigenvalues)}",
        f"train_row_means {_vec(m.train_row_means)}",
        *_mat_lines("x_train", m.x_train),
        *_mat_lines("alphas", m.alphas),
    ]


def _read_kpca(r: _Reader) -> KpcaModel:
    retained = int(r.field("retained_k"))
    gamma = float(r.field("gamma"))
    total_mean = float(r.field("train_total_mean"))
    eigenvalues = r.vec("eigenvalues")
    row_means = r.vec("train_row_means")
    x_train = r.mat("x_train")
    alphas = r.mat("alphas")
    return KpcaModel(x_train=x_train, gamma=gamma, alphas=alphas,
                     eigenvalues=eigenvalues, train_row_means=row_means,
                     train_total_mean=total_mean, retained_k=retained)


def _binary_svm_lines(m: BinarySvm) -> list[str]:
    return [
        f"kernel {m.kernel}",
        f"gamma {'none' if m.gamma is None else repr(m.gamma)}",
        f"c_penalty {m.c_penalty!r}",
        f"bias {m.bias!r}",
        f"n_iter {m.n_iter}",
        f"objective {m.objective!r}",
        f"dual_coef {_vec(m.dual_coef)}",
        *_mat_lines("support_vectors", m.support_vectors),
    ]


def _read_binary_svm(r: _Reader) -> BinarySvm:
    kernel = r.field("kernel")
    gamma_s = r.field("gamma")
    gamma = None if gamma_s == "none" else float(gamma_s)
    c_penalty = float(r.field("c_penalty"))
    bias = float(r.field("bias"))
    n_iter = int(r.field("n_iter"))
    objective = float(r.field("objective"))
    dual_coef = r.vec("dual_coef")
    sv = r.mat("support_vectors")
    return BinarySvm(support_vectors=sv, dual_coef=dual_coef, bias=bias,
                     kernel=kernel, gamma=gamma, c_penalty=c_penalty,
                     n_iter=n_iter, objective=objective)


def _svm_lines(m: SvmModel) -> list[str]:
    lines = [
        "classes " + " ".join(str(c) for c in m.classes),
        f"pairs {len(m.machines)}",
    ]
    for (ci, cj), machine in m.machines:
        lines.append(f"pair {ci} {cj}")
        lines.extend(_binary_svm_lines(machine))
    return lines


def _read_svm(r: _Reader) -> SvmModel:
    classes = tuple(int(c) for c in r.field("classes").split())
    n_pairs = int(r.field("pairs"))
    machines = []
    for _ in range(n_pairs):
        ci, cj = (int(v) for v in r.field("pair").split())
        machines.append(((ci, cj), _read_binary_svm(r)))
    return SvmModel(classes=classes, machines=tuple(machines))


def _mlp_lines(m: MlpModel) -> list[str]:
    cfg = m.config
    lines = [
        f"input_dim {cfg.input_dim}",
        "hidden " + " ".join(str(h) for h in cfg.hidden_layers),
        f"lr {cfg.lr!r}",
        f"epochs {cfg.epochs}",
        f"seed {cfg.seed}",
        f"target_min {m.target_min!r}",
        f"target_scale {m.target_scale!r}",
        *_standardizer_lines(m.standardizer),
        f"loss_trace {_vec(m.loss_trace)}",
        f"layers {len(m.weights)}",
    ]
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        lines.extend(_mat_lines(f"weight{i}", w))
        lines.append(f"bias{i} {_vec(b)}")
    return lines


def _read_mlp(r: _Reader) -> MlpModel:
    input_dim = int(r.field("input_dim"))
    hidden = tuple(int(h) for h in r.field("hidden").split())
    lr = float(r.field("lr"))
    epochs = int(r.field("epochs"))
    seed = int(r.field("seed"))
    target_min = float(r.field("target_min"))
    target_scale = float(r.field("target_scale"))
    std = _read_standardizer(r)
    loss_trace = r.vec("loss_trace")
    n_layers = int(r.field("layers"))
    weights, biases = [], []
    for i in range(n_layers):
        weights.append(r.mat(f"weight{i}"))
        biases.append(r.vec(f"bias{i}"))
    cfg = MlpConfig(input_dim=input_dim, hidden_layers=hidden, lr=lr,
                    epochs=epochs, seed=seed)
    return MlpModel(weights=tuple(weights), biases=tuple(biases),
                    standardizer=std, target_min=target_min,
                    target_scale=target_scale, loss_trace=loss_trace, config=cfg)


# Section name -> (fitted type, line writer, reader), per slot of the chain.
_STANDARDIZER = {"standardizer": (Standardizer, _standardizer_lines, _read_standardizer)}
_REDUCERS = {"pca": (PcaModel, _pca_lines, _read_pca),
             "kpca": (KpcaModel, _kpca_lines, _read_kpca)}
_MODELS = {"svm": (SvmModel, _svm_lines, _read_svm),
           "mlp": (MlpModel, _mlp_lines, _read_mlp)}


def _section_lines(part, sections) -> list[str]:
    for name, (cls, writer, _) in sections.items():
        if isinstance(part, cls):
            return [f"section {name}", *writer(part)]
    raise TypeError(f"cannot serialize {type(part).__name__} "
                    f"as a {' or '.join(sections)} section")


def _read_section(r: _Reader, sections):
    name = r.field("section")
    if name not in sections:
        raise ValueError(f"expected a {' or '.join(sections)} section, found {name!r}")
    return sections[name][2](r)


def save_model(front: FittedFront, model: SvmModel | MlpModel, path) -> None:
    """Write the chain `front` -> `model` as one model file."""
    lines = [f"enose-model {FORMAT_VERSION}",
             *_section_lines(front.standardizer, _STANDARDIZER),
             *_section_lines(front.reducer, _REDUCERS),
             *_section_lines(model, _MODELS)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path) -> tuple[FittedFront, SvmModel | MlpModel]:
    """Read a model file back into (front, model)."""
    lines = Path(path).read_text().splitlines()
    reader = _Reader(lines)
    header = reader.next().split()
    if len(header) < 2 or header[0] != "enose-model":
        raise ValueError(f"{path} is not a model file")
    if header[1] != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {header[1]}")
    if len(header) != 2:
        raise ValueError(f"{path} is not a model file")
    front = FittedFront(standardizer=_read_section(reader, _STANDARDIZER),
                        reducer=_read_section(reader, _REDUCERS))
    model = _read_section(reader, _MODELS)
    for lineno in range(reader.pos, len(lines)):
        if lines[lineno].strip():
            raise ValueError(f"line {lineno + 1}: unexpected content after the model")
    return front, model
