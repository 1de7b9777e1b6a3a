"""Feature extraction from processed voltages, with PCA and RBF kernel PCA.

Each session becomes a fixed 12-dim vector: per channel the steady-state
response level (mean over the last quarter of the exposure window), the
maximum rise rate, and the area under the response across the exposure
window; `extract_features` makes k rows at once from k sessions' channels
side by side.  PCA solves its 12x12 covariance with the dense Jacobi
eigensolver.  KPCA needs only the leading eigenpairs of an n x n centred
Gram matrix, which the top-k subspace-iteration solver finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checks import check_positive, check_sizes
from .eigen import jacobi_eigh, leading_eigh, orient_columns
from .sensors import BASELINE_S, EXPOSURE_S

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
    w, v = jacobi_eigh(cov)
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
    eigenvalues: np.ndarray   # computed leading pairs, descending, above the floor
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
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d, 0.0)


def default_gamma(x) -> float:
    """1 / (d * median pairwise squared distance), guarding degenerate data."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = x.shape[1]
    sq = pairwise_sq_dists(x, x)
    iu = np.triu_indices(sq.shape[0], k=1)
    med = float(np.median(sq[iu])) if iu[0].size else 0.0
    if med <= 0.0:
        return 1.0 / d
    return 1.0 / (d * med)


def rbf_kernel(a, b, gamma: float) -> np.ndarray:
    return np.exp(-gamma * pairwise_sq_dists(a, b))


def kpca_fit(x, gamma: float | None = None,
             variance_threshold: float = 0.95) -> KpcaModel:
    """RBF kernel PCA on the leading eigenpairs of the double-centred Gram matrix.

    Only the leading pairs that carry `variance_threshold` of trace(Kc)
    are computed (`eigen.leading_eigh`), and only those are stored.  The
    variance fractions are taken against trace(Kc), the sum of all
    eigenvalues.  A full spectrum would let the denominator drop the
    eigenvalues below the numeric floor instead; those are rounding
    noise, and on the ternary table the two denominators differ by about
    1e-9 relative.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if n < 2:
        raise ValueError("KPCA needs at least 2 samples")
    if gamma is None:
        gamma = default_gamma(x)

    k = rbf_kernel(x, x, gamma)
    row_means = k.mean(axis=1)
    total_mean = float(k.mean())
    kc = k - row_means[:, None] - row_means[None, :] + total_mean

    w, v = leading_eigh(kc, variance_threshold)
    v = orient_columns(v)
    floor = EIGENVALUE_FLOOR * max(float(w[0]), 0.0)
    keep = w > max(floor, 0.0)
    w, v = w[keep], v[:, keep]
    if w.size == 0:
        raise ValueError("centred Gram matrix has no positive eigenvalues")

    cum = np.cumsum(w) / float(np.trace(kc))
    retained = int(np.searchsorted(cum, variance_threshold - 1e-12) + 1)
    retained = min(retained, w.size)

    alphas = v / np.sqrt(w)[None, :]
    return KpcaModel(x_train=x.copy(), gamma=float(gamma), alphas=alphas,
                     eigenvalues=w, train_row_means=row_means,
                     train_total_mean=total_mean, retained_k=retained)


def kpca_transform(model: KpcaModel, x) -> np.ndarray:
    """Project new points on the model's `retained_k` leading components,
    with the centred out-of-sample kernel rows."""
    kt = rbf_kernel(x, model.x_train, model.gamma)
    ktc = (kt
           - kt.mean(axis=1)[:, None]
           - model.train_row_means[None, :]
           + model.train_total_mean)
    return ktc @ model.alphas[:, :model.retained_k]


# --- feature CSV ----------------------------------------------------------

def write_features_csv(path, x, y, conc) -> None:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != N_FEATURES:
        raise ValueError(f"feature matrix must have {N_FEATURES} columns")
    conc = np.atleast_2d(np.asarray(conc, dtype=float))
    lines = [FEATURES_HEADER]
    for i in range(x.shape[0]):
        feats = ",".join(repr(float(v)) for v in x[i])
        c = [repr(float(v)) for v in conc[i]]
        lines.append(f"{feats},{int(y[i])},{c[0]},{c[1]},{c[2]}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_features_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line == FEATURES_HEADER:
            continue
        fields = line.split(",")
        if len(fields) != N_FEATURES + 4:
            raise ValueError(f"line {lineno}: bad features row: {line!r}")
        try:
            row = [float(v) for v in fields]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {lineno}: non-finite value in features row")
        if not row[N_FEATURES].is_integer():
            raise ValueError(
                f"line {lineno}: label {fields[N_FEATURES]} is not a whole number")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path} contains no feature rows")
    m = np.array(rows, dtype=float)
    return m[:, :N_FEATURES], m[:, N_FEATURES].astype(np.int64), m[:, N_FEATURES + 1:]
