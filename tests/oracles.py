"""Independent reference implementations used only by the test suite.

Each oracle deliberately takes a different computational route from the
code under test: closed-form characteristic polynomials instead of
iterative rotations, explicit normal equations instead of lstsq,
projected gradient ascent instead of SMO, brute-force window means
instead of cumulative sums, one `str.split` per frame line instead of a
tokenizer over the whole stream, one `loss_and_grads` call per SGD step
instead of the inlined training loop, one whole simulation per session
instead of the shared per-row trace, one baseline fit and one feature
reduction per channel instead of the front end's per-chunk basis and
stacked reductions, whole-table lists of sessions instead of the
streamed front end, and one Python pass per gap run, vote
row or eigenvector column instead of array expressions over all of them.
"""

from __future__ import annotations

import math

import numpy as np

from enose import bench
from enose.acquisition import (MALFORMED_FRACTION_LIMIT, SESSION_HEADER, Session,
                               StreamError, frame_lines, parse_stream)
from enose.features import N_FEATURES, extract_features
from enose.mlp import (LOSS_IMPROVEMENT_FLOOR, MlpConfig, MlpModel, init_layers,
                       loss_and_grads)
from enose.preprocess import default_anchors, fit_standardizer, process_session
from enose.sensors import (ADC_MAX, BASELINE_S, EXPOSURE_S, _channel_resistance,
                           clean_traces, divider_voltage, dominant_gas_label, quantize,
                           session_seed, simulate_session, standard_protocol)
from enose.svm import SvmModel


def charpoly_eigvalsh(a) -> np.ndarray:
    """Closed-form eigenvalues of a symmetric matrix up to 3x3, descending."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    if n == 2:
        mean = 0.5 * (a[0, 0] + a[1, 1])
        disc = math.sqrt(max(0.0, (0.5 * (a[0, 0] - a[1, 1])) ** 2 + a[0, 1] ** 2))
        return np.array([mean + disc, mean - disc])
    if n != 3:
        raise ValueError("oracle handles matrices up to 3x3")
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    q = np.trace(a) / 3.0
    if p1 == 0.0:
        return np.sort(np.diag(a))[::-1]
    p2 = sum((a[i, i] - q) ** 2 for i in range(3)) + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = np.linalg.det(b) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    lam2 = 3.0 * q - lam1 - lam3
    return np.sort(np.array([lam1, lam2, lam3]))[::-1]


def eigvec_3x3(a, lam) -> np.ndarray:
    """Unit eigenvector of a symmetric 3x3 matrix for a simple eigenvalue."""
    a = np.asarray(a, dtype=float)
    m = a - lam * np.eye(3)
    candidates = [
        np.cross(m[0], m[1]),
        np.cross(m[0], m[2]),
        np.cross(m[1], m[2]),
    ]
    v = max(candidates, key=lambda c: float(np.linalg.norm(c)))
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("eigenvalue is not simple")
    return v / norm


def orient_columns_per_column(v: np.ndarray) -> np.ndarray:
    """`eigen.orient_columns` as one Python pass per column."""
    v = v.copy()
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return v


def brute_moving_average(x, window_m: int) -> np.ndarray:
    """Direct shrink-window mean, one python loop per output element."""
    x = np.asarray(x, dtype=float)
    half = window_m // 2
    out = np.empty_like(x)
    for i in range(x.size):
        lo = max(0, i - half)
        hi = min(x.size, i + half + 1)
        out[i] = x[lo:hi].mean()
    return out


def normal_eq_polyfit(s, y, degree: int) -> np.ndarray:
    """Polynomial coefficients from the explicit normal equations."""
    s = np.asarray(s, dtype=float)
    v = np.vander(s, degree + 1, increasing=True)
    return np.linalg.solve(v.T @ v, v.T @ np.asarray(y, dtype=float))


def kkt_max_violation(k, y, alpha, bias, c, bound_cut=1e-8):
    """Worst-case KKT residual of a dual solution (0 when exact)."""
    yf = y * (k @ (alpha * y) + bias)
    viol = np.zeros_like(yf)
    at_lo = alpha <= bound_cut * c
    at_hi = alpha >= (1.0 - bound_cut) * c
    free = ~(at_lo | at_hi)
    viol[at_lo] = np.maximum(0.0, 1.0 - yf[at_lo])
    viol[at_hi] = np.maximum(0.0, yf[at_hi] - 1.0)
    viol[free] = np.abs(yf[free] - 1.0)
    return float(viol.max()) if viol.size else 0.0


def project_box_hyperplane(z, y, c, tol: float = 1e-14) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= C, sum(a*y) = 0} by bisection."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)

    def clipped(mu):
        return np.clip(z - mu * y, 0.0, c)

    span = float(np.abs(z).max() + c + 1.0)
    lo, hi = -span, span
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = float(clipped(mid) @ y)
        if abs(g) <= tol:
            break
        if g > 0:
            lo = mid
        else:
            hi = mid
    return clipped(0.5 * (lo + hi))


def projected_gradient_dual(k, y, c, iters: int = 30000):
    """Maximize the SVM dual by projected gradient ascent.

    Returns (alpha, objective).  Step size is 1/lambda_max(Q) from power
    iteration; wholly independent of the SMO updates it checks.
    """
    k = np.asarray(k, dtype=float)
    y = np.asarray(y, dtype=float)
    q = (y[:, None] * y[None, :]) * k
    v = np.ones(y.size) / math.sqrt(y.size)
    for _ in range(100):
        w = q @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            break
        v = w / norm
    lam_max = float(v @ q @ v)
    step = 1.0 / max(lam_max, 1e-12)

    alpha = project_box_hyperplane(np.zeros(y.size), y, c)
    prev_obj = -np.inf
    for it in range(iters):
        grad = 1.0 - q @ alpha
        alpha = project_box_hyperplane(alpha + step * grad, y, c)
        if it % 200 == 0:
            obj = float(alpha.sum() - 0.5 * alpha @ q @ alpha)
            if abs(obj - prev_obj) < 1e-12:
                break
            prev_obj = obj
    obj = float(alpha.sum() - 0.5 * alpha @ q @ alpha)
    return alpha, obj


def svm_decision_table(model: SvmModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample vote counts and signed decision sums per class."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_cls = len(model.classes)
    idx = {c: i for i, c in enumerate(model.classes)}
    votes = np.zeros((x.shape[0], n_cls))
    margins = np.zeros((x.shape[0], n_cls))
    for (ci, cj), machine in model.machines:
        d = machine.decision(x)
        wins_i = d > 0
        votes[wins_i, idx[ci]] += 1
        votes[~wins_i, idx[cj]] += 1
        margins[:, idx[ci]] += d
        margins[:, idx[cj]] -= d
    return votes, margins


def svm_predict_per_row(model: SvmModel, x) -> np.ndarray:
    """`svm.svm_predict` as one Python pass per row: majority vote; ties go
    to the tied class with the largest signed decision sum, and any
    residual tie to the smallest class label."""
    votes, margins = svm_decision_table(model, x)
    classes = np.array(model.classes)
    out = np.empty(votes.shape[0], dtype=np.int64)
    for i in range(votes.shape[0]):
        top = votes[i] == votes[i].max()
        if top.sum() == 1:
            out[i] = classes[int(np.argmax(votes[i]))]
            continue
        tied = np.flatnonzero(top)
        best = tied[np.argmax(margins[i, tied])]
        out[i] = classes[int(best)]
    return out


def power_law_sse(a: float, b: float, conc, excess) -> float:
    """sum((a*c**b - excess)^2), summed in Python one point at a time."""
    return sum((a * c**b - e) ** 2 for c, e in zip(conc, excess))


def grid_min_power_law(conc, excess, n_a: int = 120, n_b: int = 120):
    """Coarse grid search of sum((a*c**b - excess)^2); returns (a, b, sse)."""
    conc = np.asarray(conc, dtype=float)
    excess = np.asarray(excess, dtype=float)
    best = (math.inf, 0.0, 0.0)
    for b in np.linspace(0.02, 1.0, n_b):
        x = conc**b
        for a in np.linspace(0.0, 3.0, n_a):
            sse = float(np.sum((a * x - excess) ** 2))
            if sse < best[0]:
                best = (sse, a, b)
    return best[1], best[2], best[0]


def is_decimal(field: str) -> bool:
    """Non-empty ASCII digits only: no sign, underscore or non-ASCII digit."""
    return field.isascii() and field.isdigit()


def parse_frame_line(line: str) -> tuple[int, list[float]] | None:
    """One data line -> (t_ms, 4 raw values, NaN for blank) or None if malformed."""
    fields = [f.strip() for f in line.split(",")]
    if len(fields) != 5 or not is_decimal(fields[0]):
        return None
    raws: list[float] = []
    for f in fields[1:]:
        if f == "":
            raws.append(math.nan)
            continue
        if not is_decimal(f):
            return None
        r = int(f)
        if r > ADC_MAX:
            return None
        raws.append(float(r))
    return int(fields[0]), raws


def impute_missing_per_run(values) -> np.ndarray:
    """`acquisition.impute_missing` of a 1-D series, one gap run at a time.

    Interior gap runs take the mean of the closest present value on each
    side; runs touching a boundary copy the single available neighbour.
    Present values are never altered.
    """
    out = np.asarray(values, dtype=float).copy()
    n = out.size
    present = np.flatnonzero(~np.isnan(out))
    if present.size == 0:
        raise ValueError("cannot impute an all-missing series")
    if present.size == n:
        return out
    i = 0
    while i < n:
        if not math.isnan(out[i]):
            i += 1
            continue
        j = i
        while j < n and math.isnan(out[j]):
            j += 1
        left = out[i - 1] if i > 0 else None
        right = out[j] if j < n else None
        if left is None:
            fill = right
        elif right is None:
            fill = left
        else:
            fill = 0.5 * (left + right)
        out[i:j] = fill
        i = j
    return out


def parse_stream_per_line(lines) -> tuple[np.ndarray, np.ndarray]:
    """(t_ms, counts) of a frame stream, parsed one line at a time.

    The reference for `acquisition.parse_stream`: the same skip rules,
    checks, messages and StreamError counts, in the same order.
    """
    rows: list[tuple[int, list[float]]] = []
    n_malformed = 0
    n_lines = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#") or line == SESSION_HEADER:
            continue
        n_lines += 1
        parsed = parse_frame_line(line)
        if parsed is None:
            n_malformed += 1
        else:
            rows.append(parsed)

    if n_lines == 0:
        raise StreamError("stream contains no frames", n_malformed, n_lines)
    if n_malformed / n_lines > MALFORMED_FRACTION_LIMIT:
        raise StreamError(
            f"stream rejected: {n_malformed} of {n_lines} lines malformed "
            f"(limit {MALFORMED_FRACTION_LIMIT:.0%})",
            n_malformed, n_lines)
    if not rows:
        raise StreamError("stream contains no frames", n_malformed, n_lines)
    try:
        t = np.array([r[0] for r in rows], dtype=np.int64)
    except OverflowError:
        raise StreamError("stream rejected: timestamp beyond the int64 range",
                          n_malformed, n_lines) from None
    if np.any(t[1:] <= t[:-1]):
        raise StreamError("stream rejected: timestamps not strictly increasing",
                          n_malformed, n_lines)
    raw = np.array([r[1] for r in rows], dtype=float)
    for ch in range(4):
        col = raw[:, ch]
        if np.isnan(col).any():
            if np.isnan(col).all():
                raise StreamError(f"channel {ch + 1} has no present values",
                                  n_malformed, n_lines)
            raw[:, ch] = np.clip(np.round(impute_missing_per_run(col)), 0, ADC_MAX)
    return t, raw.astype(np.int64)


def masked_sigmoid(z) -> np.ndarray:
    """Logistic function, each sign of z through its own boolean mask."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def mlp_train_per_call(x, targets_ppm, config: MlpConfig) -> MlpModel:
    """`mlp.mlp_train` as one `loss_and_grads` call per SGD step.

    The reference for the inlined loop: the same standardization, target
    scaling, initialisation, shuffle, updates, divergence message and
    plateau stop, with the gradients from the function the
    central-difference check covers.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.asarray(targets_ppm, dtype=float)
    std = fit_standardizer(x)
    xs = std.transform(x)
    t_min = float(t.min())
    t_scale = float(t.max() - t.min()) or 1.0
    ys = (t - t_min) / t_scale

    weights, biases = init_layers(x.shape[1], config)
    rng = np.random.default_rng(config.seed)
    n = xs.shape[0]
    trace = []
    prev = None
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for i in order:
            loss, gw, gb = loss_and_grads(weights, biases, xs[i:i + 1], ys[i:i + 1])
            total += loss
            for layer in range(len(weights)):
                weights[layer] -= config.lr * gw[layer]
                biases[layer] -= config.lr * gb[layer]
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            raise RuntimeError(
                f"training diverged: non-finite loss at epoch {epoch} "
                f"(lr={config.lr}, hidden={config.hidden_layers})")
        trace.append(epoch_loss)
        if prev is not None and abs(prev - epoch_loss) < LOSS_IMPROVEMENT_FLOOR:
            break
        prev = epoch_loss
    return MlpModel(weights=tuple(weights), biases=tuple(biases), standardizer=std,
                    target_min=t_min, target_scale=t_scale,
                    loss_trace=np.array(trace), config=config)


def simulate_session_per_session(specs, proto, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """`sensors.simulate_session` rebuilding every channel's clean trace.

    The reference for the shared per-row trace: each channel's resistance,
    drift, noise draw, floor and readout in turn, one channel at a time.
    """
    n = proto.n_samples
    dt = 1.0 / proto.sample_rate_hz
    t = np.arange(n) * dt
    rng = np.random.default_rng(seed)
    counts = np.empty((n, 4), dtype=np.int64)
    for ch, spec in enumerate(specs):
        r = _channel_resistance(spec, proto, t)
        r = r + spec.r_air * spec.drift_rate * (t / 3600.0)
        if spec.noise_sigma > 0:
            r = r * (1.0 + spec.noise_sigma * rng.standard_normal(n))
        r = np.maximum(r, 1e-9)
        counts[:, ch] = quantize(divider_voltage(spec, r))
    t_ms = np.rint(np.arange(n) * 1000.0 / proto.sample_rate_hz).astype(np.int64)
    return t_ms, counts


def moving_average_1d(x, window_m: int) -> np.ndarray:
    """Shrink-window moving average of one series by cumulative sums."""
    x = np.asarray(x, dtype=float)
    if window_m == 1:
        return x.copy()
    n = x.size
    half = window_m // 2
    idx = np.arange(n)
    lo = np.maximum(0, idx - half)
    hi = np.minimum(n, idx + half + 1)
    csum = np.concatenate(([0.0], np.cumsum(x)))
    out = (csum[hi] - csum[lo]) / (hi - lo)
    return np.clip(out, x.min(), x.max())


def remove_baseline_1d(y, t, degree: int) -> np.ndarray:
    """One series minus its polynomial fitted over the default anchors."""
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    anchors = default_anchors(y.size)
    s = (t - t.min()) / (float(t.max() - t.min()) or 1.0)
    vand = np.vander(s[anchors], degree + 1, increasing=True)
    coeffs = np.linalg.lstsq(vand, y[anchors], rcond=None)[0]
    return y - np.vander(s, degree + 1, increasing=True) @ coeffs


def process_session_per_channel(session, window_m: int, degree: int) -> np.ndarray:
    """`preprocess.process_session` channels, smoothing and detrending one
    channel at a time with its own basis."""
    volts = session.voltages()
    t_s = session.t_ms / 1000.0
    out = np.empty_like(volts, dtype=float)
    for ch in range(4):
        out[:, ch] = remove_baseline_1d(moving_average_1d(volts[:, ch], window_m), t_s, degree)
    return out


def extract_features_per_channel(channels_n4, rate: float) -> np.ndarray:
    """`features.extract_features` of one session's `(n, 4)` channels, one
    channel at a time, reducing each column as a 1-D array."""
    i0 = int(round(BASELINE_S * rate))
    i1 = int(round((BASELINE_S + EXPOSURE_S) * rate))
    dt = 1.0 / rate
    tail = max(1, (i1 - i0) // 4)
    values = np.empty(N_FEATURES)
    for ch in range(4):
        window = channels_n4[i0:i1, ch]
        steady = float(window[-tail:].mean())
        slope = float(np.max(np.diff(window)) / dt)
        area = float(np.trapezoid(window, dx=dt))
        values[3 * ch:3 * ch + 3] = (steady, slope, area)
    return values


def prepare_features_whole_table(table, config, seed: int) -> bench.FeatureSplit:
    """`bench.prepare_features` holding every session of the table at once.

    The reference for the streamed front end: a list of all generated
    sessions, then the list of their wire round trips, then the list of
    processed channels, preprocessed and extracted one session at a time,
    then one feature row each, with labels and targets read from the kept
    sessions.
    """
    specs = bench.sensor_array_for(config)
    sessions = []
    counts = bench.row_counts(table.n_total, len(table.rows))
    for row_idx, (mix, count) in enumerate(zip(table.rows, counts)):
        proto = standard_protocol(mix, config.sample_rate_hz)
        clean = clean_traces(specs, proto)
        for rep in range(count):
            t_ms, raw = simulate_session(specs, proto,
                                         session_seed(seed, row_idx, rep), clean)
            sessions.append(Session(t_ms, raw, label=dominant_gas_label(mix), mixture=mix,
                                    sample_rate_hz=config.sample_rate_hz))
    sessions = [parse_stream(frame_lines(s.t_ms, s.counts), label=s.label,
                             mixture=s.mixture, sample_rate_hz=s.sample_rate_hz)
                for s in sessions]
    processed = [process_session(s.voltages(), s.t_ms, config.filter) for s in sessions]
    x = np.vstack([extract_features(p, s.sample_rate_hz)
                   for p, s in zip(processed, sessions)])
    y = np.array([s.label for s in sessions], dtype=np.int64)
    conc = np.array([s.mixture.as_tuple() for s in sessions], dtype=float)
    train_idx, test_idx = bench.stratified_split(y, table.n_train, table.n_test, seed)
    front = bench.fit_front(x[train_idx], config)
    return bench.FeatureSplit(x=x, y=y, conc=conc, train_idx=train_idx,
                              test_idx=test_idx, z_train=front.scores(x[train_idx]),
                              z_test=front.scores(x[test_idx]))
