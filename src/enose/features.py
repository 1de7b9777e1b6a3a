"""Feature extraction from processed voltages, with PCA and RBF kernel PCA.

Each session becomes a fixed 12-dim vector: per channel the steady-state
response level (mean over the last quarter of the exposure window), the
maximum rise rate, and the area under the response across the exposure
window; `extract_features` makes k rows at once from k sessions' channels
side by side.  PCA and KPCA each take their eigenpairs from one LAPACK
`np.linalg.eigh` call, on the 12x12 covariance or on the n x n centred
Gram matrix, in descending order.

A KPCA fit builds one n x n matrix: the pairwise squared distances,
from which the default gamma's median is taken, and which then becomes
the RBF Gram matrix and the centred Gram matrix in place.  Each step
rounds as the whole-array expression it replaces, so the bytes are those
of `np.exp(-gamma * d)` on a fresh distance matrix and of `np.median`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import (check_positive, check_sizes, is_integer_text, parse_float, read_text,
                     text_lines, write_lines)
from .sensors import BASELINE_S, EXPOSURE_S, LABELS

N_FEATURES = 12
FEATURES_HEADER = ",".join(
    [f"f{i + 1}" for i in range(N_FEATURES)]
    + ["label", "acetone_ppm", "ethanol_ppm", "methanol_ppm"]
)

EIGENVALUE_FLOOR = 1e-10


def extract_features(channels, sample_rate_hz: float) -> np.ndarray:
    """Deterministic `(k, 12)` summary of k processed sessions.

    `channels` is `(n, 4k)`, each group of 4 columns one session.  A row
    is channel-major (steady, slope, area) over the exposure window of the
    standard protocol, BASELINE_S to BASELINE_S + EXPOSURE_S.
    """
    n = channels.shape[0]
    i0 = int(round(BASELINE_S * sample_rate_hz))
    i1 = int(round((BASELINE_S + EXPOSURE_S) * sample_rate_hz))
    if n < i1 or i1 - i0 < 2:
        raise ValueError(f"session has {n} samples, exposure window needs {i1}")
    dt = 1.0 / sample_rate_hz
    tail = max(1, (i1 - i0) // 4)

    # reductions along a contiguous last axis sum in the order of a 1-D
    # reduction over each column; along axis 0 they do not
    window = np.ascontiguousarray(channels[i0:i1].T)
    steady = window[:, -tail:].mean(axis=1)
    slope = np.diff(window, axis=1).max(axis=1) / dt
    area = np.trapezoid(window, dx=dt, axis=1)
    values = np.column_stack([steady, slope, area]).reshape(-1, N_FEATURES)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite feature values")
    return values


# --- eigenpairs -----------------------------------------------------------

def _eigh_descending(a) -> tuple[np.ndarray, np.ndarray]:
    """`np.linalg.eigh` (which reads the lower triangle of `a`) with the
    pairs in descending order; a stable sort keeps LAPACK's order of ties."""
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def orient_columns(v: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive."""
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return np.where(top < 0, -v, v)


# --- PCA ------------------------------------------------------------------

def _check_retained_k(k: int, available: int, what: str) -> None:
    if not 1 <= k <= available:
        raise ValueError(f"retained_k must lie in 1..{available} ({what}), got {k}")


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # orthonormal rows, eigenvalue-descending
    eigenvalues: np.ndarray
    retained_k: int

    def __post_init__(self):
        # one layout for fitted and loaded models, as for KpcaModel.alphas
        object.__setattr__(self, "components", np.asfortranarray(self.components))
        k, d = self.components.shape
        check_sizes({"mean": len(self.mean), "components columns": d})
        check_sizes({"eigenvalues": len(self.eigenvalues), "components rows": k})
        _check_retained_k(self.retained_k, k, "components")


def pca_fit(x, variance_threshold: float = 0.95) -> PcaModel:
    """Eigendecomposition of the population covariance of mean-centred data."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ValueError("PCA needs at least 2 samples")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / n
    w, v = _eigh_descending(cov)
    w = np.maximum(w, 0.0)
    v = orient_columns(v)
    total = float(w.sum())
    if total <= 0.0:
        retained = 1
    else:
        cum = np.cumsum(w) / total
        retained = int(np.searchsorted(cum, variance_threshold - 1e-12) + 1)
        retained = min(retained, w.size)
    return PcaModel(mean=mean, components=v.T, eigenvalues=w, retained_k=retained)


def pca_transform(model: PcaModel, x) -> np.ndarray:
    """Scores on the model's `retained_k` leading components."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return (x - model.mean) @ model.components[:model.retained_k].T


# --- kernel PCA -----------------------------------------------------------

@dataclass(frozen=True)
class KpcaModel:
    x_train: np.ndarray
    gamma: float
    alphas: np.ndarray        # centred-Gram eigenvectors scaled by 1/sqrt(eig)
    eigenvalues: np.ndarray   # the retained_k leading pairs, descending
    train_row_means: np.ndarray
    train_total_mean: float
    retained_k: int

    def __post_init__(self):
        # BLAS sums `ktc @ alphas` in an order that depends on the layout of
        # alphas; one layout for fitted and loaded models keeps a saved and
        # reloaded model's projections bit for bit those of the fitted one
        object.__setattr__(self, "alphas", np.asfortranarray(self.alphas))
        check_positive("gamma", self.gamma)
        n, k = self.alphas.shape
        check_sizes({"x_train rows": len(self.x_train),
                     "train_row_means": len(self.train_row_means), "alphas rows": n})
        check_sizes({"eigenvalues": len(self.eigenvalues), "alphas columns": k})
        _check_retained_k(self.retained_k, k, "alphas columns")


def pairwise_sq_dists(a, b) -> np.ndarray:
    """max(|a_i|^2 + |b_j|^2 - 2 a_i.b_j, 0), in two (len(a), len(b)) buffers."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
    g = a @ b.T
    g *= 2.0
    d -= g
    return np.maximum(d, 0.0, out=d)


def median_gamma(sq, d: int) -> float:
    """1 / (d * median of the pairwise squared distances above the diagonal
    of `sq`), or 1 / d when that median is not positive (fewer than two
    points, or all of them equal).

    The median is `np.median`'s, bit for bit: the middle value, or for an
    even count the mean (lo + hi) / 2 of the two middle ones, and nan when
    any value is nan.  One partition of the gathered values finds them.
    """
    n = sq.shape[0]
    vals = sq[~np.tri(n, dtype=bool)]
    m = vals.size
    if m == 0:
        return 1.0 / d
    mid = [m // 2 - 1, m // 2] if m % 2 == 0 else [m // 2]
    vals.partition(mid + [-1])   # nan sorts last
    if np.isnan(vals[-1]):
        med = math.nan
    else:
        med = float(vals[mid].sum()) / len(mid)
    if med <= 0.0:
        return 1.0 / d
    return 1.0 / (d * med)


def rbf_from_sq_dists(sq: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * sq), computed in place in `sq`, which it returns."""
    sq *= -gamma
    return np.exp(sq, out=sq)


def rbf_kernel(a, b, gamma: float) -> np.ndarray:
    return rbf_from_sq_dists(pairwise_sq_dists(a, b), gamma)


def kpca_fit(x, gamma: float | None = None,
             variance_threshold: float = 0.95) -> KpcaModel:
    """RBF kernel PCA on the leading eigenpairs of the double-centred Gram matrix.

    The pairs above the eigenvalue floor are taken in descending order
    until their eigenvalues carry `variance_threshold` of trace(Kc), the
    sum of all eigenvalues; only those `retained_k` pairs are stored.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if n < 2:
        raise ValueError("KPCA needs at least 2 samples")
    sq = pairwise_sq_dists(x, x)
    if gamma is None:
        gamma = median_gamma(sq, x.shape[1])

    # K, then Kc = K - r[:, None] - r[None, :] + m, in the distance matrix's
    # buffer: no second n x n array
    kc = rbf_from_sq_dists(sq, gamma)
    row_means = kc.mean(axis=1)
    total_mean = float(kc.mean())
    kc -= row_means[:, None]
    kc -= row_means[None, :]
    kc += total_mean

    # sorted as `_eigh_descending` sorts, gathering only the retained columns
    w, v = np.linalg.eigh(kc)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    floor = EIGENVALUE_FLOOR * max(float(w[0]), 0.0)
    w = w[w > floor]
    if w.size == 0:
        raise ValueError("centred Gram matrix has no positive eigenvalues")

    cum = np.cumsum(w) / float(np.trace(kc))
    retained = int(np.searchsorted(cum, variance_threshold - 1e-12) + 1)
    retained = min(retained, w.size)

    w = w[:retained]
    alphas = orient_columns(v[:, order[:retained]]) / np.sqrt(w)[None, :]
    return KpcaModel(x_train=x.copy(), gamma=float(gamma), alphas=alphas,
                     eigenvalues=w, train_row_means=row_means,
                     train_total_mean=total_mean, retained_k=retained)


def kpca_transform(model: KpcaModel, x) -> np.ndarray:
    """Project new points on the model's `retained_k` leading components,
    with the centred out-of-sample kernel rows."""
    # Kt - mean(Kt rows)[:, None] - r[None, :] + m, in the kernel's buffer
    ktc = rbf_kernel(x, model.x_train, model.gamma)
    ktc -= ktc.mean(axis=1)[:, None]
    ktc -= model.train_row_means[None, :]
    ktc += model.train_total_mean
    return ktc @ model.alphas[:, :model.retained_k]


# --- feature CSV ----------------------------------------------------------

def write_features_csv(path, x, y, conc) -> None:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != N_FEATURES:
        raise ValueError(f"feature matrix must have {N_FEATURES} columns")
    conc = np.atleast_2d(np.asarray(conc, dtype=float))
    lines = [FEATURES_HEADER]
    # Python floats from tolist(): repr of each is that of float(numpy value)
    for feats, label, c in zip(x.tolist(), y, conc.tolist(), strict=True):
        lines.append(f"{','.join(map(repr, feats))},{int(label)},{c[0]!r},{c[1]!r},{c[2]!r}")
    write_lines(path, lines)


def read_features_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = []
    for lineno, line in text_lines(read_text(path)):
        if line == FEATURES_HEADER:
            continue
        fields = line.split(",")
        if len(fields) != N_FEATURES + 4:
            raise ValueError(f"line {lineno}: bad features row: {line!r}")
        try:
            row = [parse_float(v) for v in fields]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {lineno}: non-finite value in features row")
        if not is_integer_text(fields[N_FEATURES]) or row[N_FEATURES] not in LABELS:
            raise ValueError(
                f"line {lineno}: label {fields[N_FEATURES]} is not a whole number in 0..3")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path} contains no feature rows")
    m = np.array(rows, dtype=float)
    return m[:, :N_FEATURES], m[:, N_FEATURES].astype(np.int64), m[:, N_FEATURES + 1:]
