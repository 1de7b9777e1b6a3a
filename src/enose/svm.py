"""Soft-margin SVM trained by sequential minimal optimization.

Binary training uses analytic two-variable updates on the pair that
maximizes |E_i - E_j| over the points still free to move - the maximal
violating pair, whose bias-free gap is also the stopping test.  All
scans run in a fixed order, so training is fully deterministic.
Multiclass problems train one binary machine per class pair and
predict by majority vote.

The solver stops once the violation gap is comfortably inside SMO_TOL,
so the trained model satisfies the per-point KKT conditions at that
tolerance after the final bias is recomputed.

An RBF machine builds one n x n matrix: the pairwise squared distances
give the default gamma, then become the Gram matrix in place.  SMO keeps
its eligibility masks and updates only the two points a step moved; a
step's scalars are Python floats, and its array work is the pair search
and the decision-value update.  Both round as before, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .checks import check_positive
from .features import median_gamma, pairwise_sq_dists, rbf_from_sq_dists, rbf_kernel

SMO_TOL = 1e-3          # KKT tolerance of a trained machine
MAX_STEPS = 200_000     # cap on two-variable updates per machine


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, n_iter: int):
        super().__init__(f"{message} (after {n_iter} iterations)")
        self.n_iter = n_iter


@dataclass(frozen=True)
class SvmParams:
    """No defaults: a run's values come from `bench.PipelineConfig.svm_params`,
    the one declaration of the SVM settings."""

    c_penalty: float
    kernel: str           # "linear" or "rbf"
    gamma: float | None   # None: 1/(d * median pairwise sq dist)

    def __post_init__(self):
        check_positive("c_penalty", self.c_penalty)
        _check_kernel(self.kernel, self.gamma)


def _check_kernel(kernel: str, gamma: float | None) -> None:
    """A known kernel, and a gamma that is None or finite and > 0."""
    if kernel not in ("linear", "rbf"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if gamma is not None:
        check_positive("gamma", gamma)


def kernel_matrix(a, b, kernel: str, gamma: float | None) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if kernel == "linear":
        return a @ b.T
    if kernel == "rbf":
        return rbf_kernel(a, b, gamma)
    raise ValueError(f"unknown kernel {kernel!r}")


@dataclass(frozen=True)
class BinarySvm:
    """One trained class pair: support vectors, duals alpha_i*y_i, bias."""

    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: float
    kernel: str
    gamma: float | None
    c_penalty: float
    n_iter: int
    objective: float

    def __post_init__(self):
        _check_kernel(self.kernel, self.gamma)
        if self.kernel == "rbf" and self.gamma is None:
            raise ValueError("gamma must be set for the rbf kernel")
        check_positive("c_penalty", self.c_penalty)
        if len(self.support_vectors) != len(self.dual_coef):
            raise ValueError(f"{len(self.support_vectors)} support_vectors rows but "
                             f"{len(self.dual_coef)} dual_coef values")

    def decision(self, x) -> np.ndarray:
        k = kernel_matrix(x, self.support_vectors, self.kernel, self.gamma)
        return k @ self.dual_coef + self.bias


def dual_objective(k: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    """SVM dual: sum(alpha) - 0.5 * (alpha*y)' K (alpha*y)."""
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ k @ ay)


class _Smo:
    def __init__(self, k: np.ndarray, y: np.ndarray, c: float):
        self.k = k
        self.y = y
        self.c = c
        self.n = y.size
        self.alpha = np.zeros(self.n)
        self.bias = 0.0
        # decision values f(x_i); kept incrementally up to date
        self.f = np.full(self.n, 0.0)
        self.n_steps = 0
        # a step reads a few scalars, as Python floats
        self._y = y.tolist()
        self._k_diag = k.diagonal().tolist()
        # points that may still move up/down without leaving the box; a
        # step changes two alphas, so it updates those two (`_eligible`)
        self.up = y > 0       # every alpha starts at 0
        self.low = y < 0
        self._buffers = (np.empty(self.n), np.empty(self.n))

    def _eligible(self, i: int) -> tuple[bool, bool]:
        """Whether point i may still move up, and down, inside the box."""
        a, y = self.alpha.item(i), self._y[i]
        near_lo = a <= 1e-12 * self.c
        near_hi = a >= (1.0 - 1e-12) * self.c
        return ((y > 0 and not near_hi) or (y < 0 and not near_lo),
                (y > 0 and not near_lo) or (y < 0 and not near_hi))

    def _take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        a1, a2 = self.alpha.item(i1), self.alpha.item(i2)
        y1, y2 = self._y[i1], self._y[i2]
        e1 = self.f.item(i1) - y1
        e2 = self.f.item(i2) - y2
        s = y1 * y2
        if s > 0:
            lo, hi = max(0.0, a1 + a2 - self.c), min(self.c, a1 + a2)
        else:
            lo, hi = max(0.0, a2 - a1), min(self.c, self.c + a2 - a1)
        if hi - lo < 1e-12:
            return False

        k11 = self._k_diag[i1]
        k22 = self._k_diag[i2]
        k12 = self.k.item(i1, i2)
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2_new = a2 + y2 * (e1 - e2) / eta
            a2_new = min(hi, max(lo, a2_new))
        else:
            # flat or concave direction: test the box ends
            f1 = y1 * (e1 + self.bias) - a1 * k11 - s * a2 * k12
            f2 = y2 * (e2 + self.bias) - s * a1 * k12 - a2 * k22
            l1 = a1 + s * (a2 - lo)
            h1 = a1 + s * (a2 - hi)
            obj_lo = (l1 * f1 + lo * f2 + 0.5 * l1 * l1 * k11
                      + 0.5 * lo * lo * k22 + s * lo * l1 * k12)
            obj_hi = (h1 * f1 + hi * f2 + 0.5 * h1 * h1 * k11
                      + 0.5 * hi * hi * k22 + s * hi * h1 * k12)
            if obj_lo < obj_hi - 1e-12:
                a2_new = lo
            elif obj_lo > obj_hi + 1e-12:
                a2_new = hi
            else:
                return False
        if abs(a2_new - a2) < 1e-12 * (a2_new + a2 + 1e-12):
            return False
        a1_new = a1 + s * (a2 - a2_new)

        d1 = a1_new - a1
        d2 = a2_new - a2
        b1 = self.bias - e1 - y1 * d1 * k11 - y2 * d2 * k12
        b2 = self.bias - e2 - y1 * d1 * k12 - y2 * d2 * k22
        if 0.0 < a1_new < self.c:
            bias_new = b1
        elif 0.0 < a2_new < self.c:
            bias_new = b2
        else:
            bias_new = 0.5 * (b1 + b2)

        # f += y1 d1 K[i1] + y2 d2 K[i2] + (bias_new - bias), in that order
        step, other = self._buffers
        np.multiply(y1 * d1, self.k[i1], out=step)
        np.multiply(y2 * d2, self.k[i2], out=other)
        step += other
        step += bias_new - self.bias
        self.f += step
        self.alpha[i1] = a1_new
        self.alpha[i2] = a2_new
        self.bias = bias_new
        for i in (i1, i2):
            self.up[i], self.low[i] = self._eligible(i)
        return True

    def solve(self) -> int:
        """Maximal-violating-pair SMO.

        Optimality is the bias-free gap criterion: with E_i = f_i - y_i,
        the dual is SMO_TOL-optimal once max(E over the 'low' set) minus
        min(E over the 'up' set) drops below the stop gap.  The selected
        pair is the one maximizing |E_i - E_j| over eligible pairs; of
        equal E values the first index wins.
        """
        stop_gap = 0.8 * SMO_TOL
        e = np.empty(self.n)
        while self.n_steps < MAX_STEPS:
            np.subtract(self.f, self.y, out=e)
            i_up = int(np.where(self.up, e, np.inf).argmin())
            i_low = int(np.where(self.low, e, -np.inf).argmax())
            if not (self.up[i_up] and self.low[i_low]):
                # E is finite, so only an empty set gives a point outside it
                return self.n_steps
            if e.item(i_low) - e.item(i_up) <= stop_gap:
                return self.n_steps
            if not self._take_step(i_low, i_up):
                # degenerate geometry on the extreme pair: walk the next
                # most violating partners in deterministic order
                low_idx = np.flatnonzero(self.low)
                order = low_idx[np.argsort(-e[low_idx], kind="stable")]
                if not any(self._take_step(j, i_up) for j in order.tolist()):
                    up_idx = np.flatnonzero(self.up)
                    order = up_idx[np.argsort(e[up_idx], kind="stable")]
                    if not any(self._take_step(i_low, j) for j in order.tolist()):
                        raise ConvergenceError(
                            "SMO stalled on a violating pair", self.n_steps)
            self.n_steps += 1
        raise ConvergenceError("SMO did not satisfy the KKT conditions",
                               self.n_steps)


def svm_train_binary(x, y, params: SvmParams) -> BinarySvm:
    """Train one two-class machine; labels must be -1/+1 with both present."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("training matrix contains non-finite values")
    if set(y.tolist()) != {-1.0, 1.0}:
        raise ValueError("binary training needs both labels -1 and +1")

    gamma = params.gamma
    if params.kernel == "rbf":
        # one distance matrix gives gamma, then becomes the Gram matrix
        sq = pairwise_sq_dists(x, x)
        if gamma is None:
            gamma = median_gamma(sq, x.shape[1])
        k = rbf_from_sq_dists(sq, gamma)
    else:
        k = kernel_matrix(x, x, params.kernel, gamma)

    smo = _Smo(k, y, params.c_penalty)
    n_iter = smo.solve()
    alpha = np.clip(smo.alpha, 0.0, params.c_penalty)

    # final bias: mean over free support vectors, else midpoint of the
    # feasible interval derived from the bound points
    g = k @ (alpha * y)
    free = (alpha > 1e-8 * params.c_penalty) & (alpha < (1 - 1e-8) * params.c_penalty)
    if free.any():
        bias = float(np.mean(y[free] - g[free]))
    else:
        lo_set = np.concatenate([(1.0 - g)[(y > 0) & (alpha <= 0)],
                                 (-1.0 - g)[(y < 0) & (alpha >= params.c_penalty)]])
        hi_set = np.concatenate([(1.0 - g)[(y > 0) & (alpha >= params.c_penalty)],
                                 (-1.0 - g)[(y < 0) & (alpha <= 0)]])
        lo = float(lo_set.max()) if lo_set.size else -np.inf
        hi = float(hi_set.min()) if hi_set.size else np.inf
        if np.isinf(lo) or np.isinf(hi):
            bias = smo.bias
        else:
            bias = 0.5 * (lo + hi)

    sv = alpha > 1e-12 * params.c_penalty
    return BinarySvm(
        support_vectors=x[sv].copy(),
        dual_coef=(alpha * y)[sv],
        bias=bias,
        kernel=params.kernel,
        gamma=gamma,
        c_penalty=params.c_penalty,
        n_iter=n_iter,
        objective=dual_objective(k, y, alpha),
    )


@dataclass(frozen=True)
class SvmModel:
    """One-vs-one multiclass model: one BinarySvm per class pair."""

    classes: tuple[int, ...]
    machines: tuple[tuple[tuple[int, int], BinarySvm], ...]

    def __post_init__(self):
        pairs = tuple(pair for pair, _ in self.machines)
        if (len(self.classes) < 2 or list(self.classes) != sorted(set(self.classes))
                or pairs != tuple(combinations(self.classes, 2))):
            raise ValueError(f"classes {self.classes} must be sorted, unique and at least "
                             f"2, with one pair per two classes; found pairs {pairs}")


def svm_train_multiclass(x, y, params: SvmParams) -> SvmModel:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=np.int64)
    classes = tuple(sorted(set(y.tolist())))
    if len(classes) < 2:
        raise ValueError("multiclass training needs at least 2 classes")
    machines = []
    for ci, cj in combinations(classes, 2):
        mask = (y == ci) | (y == cj)
        yy = np.where(y[mask] == ci, 1.0, -1.0)
        machines.append(((ci, cj), svm_train_binary(x[mask], yy, params)))
    return SvmModel(classes=classes, machines=tuple(machines))


def svm_predict(model: SvmModel, x) -> np.ndarray:
    """Majority vote; ties go to the tied class with the largest signed
    decision sum, and any residual tie to the smallest class label."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    idx = {c: i for i, c in enumerate(model.classes)}
    votes = np.zeros((x.shape[0], len(model.classes)))
    margins = np.zeros_like(votes)
    for (ci, cj), machine in model.machines:
        d = machine.decision(x)
        wins_i = d > 0
        votes[wins_i, idx[ci]] += 1
        votes[~wins_i, idx[cj]] += 1
        margins[:, idx[ci]] += d
        margins[:, idx[cj]] -= d
    if not np.isfinite(margins).all():
        raise OverflowError("one-vs-one decision values overflow")
    # `classes` is sorted, and argmax takes the first of equal margins
    top = votes == votes.max(axis=1, keepdims=True)
    best = np.argmax(np.where(top, margins, -np.inf), axis=1)
    return np.array(model.classes, dtype=np.int64)[best]
