"""Baseline drift removal, moving-average smoothing and standardization.

Each column of an `(n, c)` voltage matrix (one session's 4 channels, or
k sessions' side by side) is filtered on its own.  The smoothing window
is centred and shrinks at the edges (no values are invented beyond the
series).  Baseline fitting solves a least-squares
polynomial over anchor samples only - by default the leading and
trailing 10% of the session, which for the standard exposure protocol
are clean-air stretches - and subtracts its evaluation everywhere, so
the response transient itself is not fitted away.  Each column is
still its own least-squares problem; all of a matrix's columns are
solved in one `lstsq` call with a stacked right-hand side.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .acquisition import SESSION_HEADER, Session, write_meta
from .checks import check_sizes, write_lines

EDGE_FRACTION = 0.10


@dataclass(frozen=True)
class FilterConfig:
    window_m: int
    baseline_degree: int

    def __post_init__(self):
        if self.window_m < 1 or self.window_m % 2 == 0:
            raise ValueError("window_m must be an odd integer >= 1")
        if not 0 <= self.baseline_degree <= 5:
            raise ValueError("baseline_degree must be in 0..5")


def moving_average(series, window_m: int) -> np.ndarray:
    """Centred moving average along axis 0, with shrinking windows at the edges.

    A 2-D series is averaged column by column.
    """
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("series is empty")
    if window_m < 1 or window_m % 2 == 0:
        raise ValueError("window_m must be an odd integer >= 1")
    if window_m == 1:
        return x.copy()
    n = x.shape[0]
    half = window_m // 2
    idx = np.arange(n)
    lo = np.maximum(0, idx - half)
    hi = np.minimum(n, idx + half + 1)
    csum = np.concatenate((np.zeros((1, *x.shape[1:])), np.cumsum(x, axis=0)))
    width = (hi - lo).reshape(-1, *(1,) * (x.ndim - 1))
    out = (csum[hi] - csum[lo]) / width
    # window means lie in [min, max] exactly; clip off cumsum rounding dust
    return np.clip(out, x.min(axis=0), x.max(axis=0))


def default_anchors(n: int) -> np.ndarray:
    """Leading and trailing 10% of sample indices (at least one each)."""
    k = max(1, int(n * EDGE_FRACTION))
    return np.concatenate([np.arange(0, min(k, n)), np.arange(max(0, n - k), n)])


def fit_baseline(series, t, degree: int, anchors=None):
    """Least-squares polynomial over the anchor samples, per column.

    `series` is (n,) or (n, k).  Returns (baseline evaluated at every t,
    coefficients, (t0, tscale)); the coefficients are (degree + 1,) or
    (degree + 1, k).  Each column is its own least-squares problem, but
    all of them are solved in one `lstsq` call, so a column of a stacked
    fit may differ from its 1-D fit in the last digits.  The
    coefficients are in the scaled coordinate s = (t - t0) / tscale for
    conditioning; callers comparing against an independent solve must
    use the same basis.
    `anchors` are sample indices; None means `default_anchors(n)`.
    """
    y = np.asarray(series, dtype=float)
    t = np.asarray(t, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError(f"series must be (n,) or (n, k), got shape {y.shape}")
    n = y.shape[0]
    if n != t.size:
        raise ValueError("series and timestamps differ in length")
    if n < degree + 1:
        raise ValueError(f"need at least {degree + 1} samples for degree {degree}")
    anchors = default_anchors(n) if anchors is None else np.asarray(anchors)
    if anchors.size < degree + 1:
        raise ValueError("not enough anchor samples for the requested degree")

    t0 = float(t.min())
    tscale = float(t.max() - t.min()) or 1.0
    s = (t - t0) / tscale
    vand = np.vander(s[anchors], degree + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(vand, y[anchors], rcond=None)
    if rank < degree + 1:
        raise ValueError(f"rank-deficient baseline fit (rank {rank} < {degree + 1})")
    return np.vander(s, degree + 1, increasing=True) @ coeffs, coeffs, (t0, tscale)


def remove_baseline(series, t, degree: int, anchors=None) -> np.ndarray:
    """Subtract the anchor-fitted polynomial baseline from each column."""
    baseline, _, _ = fit_baseline(series, t, degree, anchors)
    return np.asarray(series, dtype=float) - baseline


@dataclass(frozen=True)
class Standardizer:
    """Per-feature z-scoring with population (divide-by-N) deviations.

    Features with zero variance are flagged constant and passed through
    unchanged.
    """

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray

    def __post_init__(self):
        check_sizes({"mean": len(self.mean), "std": len(self.std),
                     "constant": len(self.constant)})
        if not np.all((self.std > 0) & (self.std < np.inf)):
            raise ValueError("std must be finite and > 0")

    def transform(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = x.copy()
        live = ~self.constant
        out[:, live] = (x[:, live] - self.mean[live]) / self.std[live]
        return out


def fit_standardizer(x) -> Standardizer:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.size == 0:
        raise ValueError("cannot fit a standardizer on an empty matrix")
    mean = x.mean(axis=0)
    std = x.std(axis=0)  # population convention
    constant = std == 0.0
    safe_std = np.where(constant, 1.0, std)
    return Standardizer(mean=mean, std=safe_std, constant=constant)


def process_session(volts, t_ms, config: FilterConfig) -> np.ndarray:
    """Smooth each column of the `(n, c)` voltages sampled at `t_ms`, then
    remove its polynomial baseline."""
    smooth = moving_average(volts, config.window_m)
    return remove_baseline(smooth, np.asarray(t_ms) / 1000.0, config.baseline_degree)


def write_processed(session: Session, channels, config: FilterConfig, csv_path) -> None:
    """Processed CSV of `session`'s `(n, 4)` processed `channels`: the session
    CSV's schema plus config comments, and the session's `.meta` sidecar."""
    lines = [f"# {key} = {value}" for key, value in asdict(config).items()]
    lines += ["# edge_policy = shrink", SESSION_HEADER]
    for t, row in zip(session.t_ms.tolist(), channels.tolist()):
        lines.append(f"{t},{','.join(map(repr, row))}")
    write_lines(csv_path, lines)
    write_meta(session, csv_path)
