"""Ingestion of raw frame streams and the canonical session CSV format.

Wire format: newline-delimited ASCII, one frame per line,

    t_ms,raw1,raw2,raw3,raw4

with fields of ASCII decimal digits (surrounding whitespace allowed) and
raw counts in the 12-bit range.  A blank raw field marks a dropped sample
(imputed from its neighbours); anything else that does not fit the
schema is malformed.  Session files use the same lines under a fixed
header, with metadata in a `<name>.meta` sidecar of flat `key=value`
lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sensors import ADC_LEVELS, ADC_MAX, ADC_VREF, GASES, GasMixture

SESSION_HEADER = "t_ms,raw1,raw2,raw3,raw4"
MALFORMED_FRACTION_LIMIT = 0.10


class StreamError(ValueError):
    """Raised when a frame stream cannot be ingested as a session."""

    def __init__(self, message: str, n_malformed: int = 0, n_lines: int = 0):
        super().__init__(message)
        self.n_malformed = n_malformed
        self.n_lines = n_lines


def adc_to_voltage(raw: int) -> float:
    """Volts for one 12-bit ADC count: raw * 3.3 / 4096."""
    if not 0 <= raw <= ADC_MAX:
        raise ValueError(f"raw count {raw} outside [0, {ADC_MAX}]")
    return raw * ADC_VREF / ADC_LEVELS


def _readonly_int64(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must hold integers, got {arr.dtype}")
    arr = arr.astype(np.int64)  # a private copy, so freezing it is safe
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Session:
    """An ingested recording: n timestamped 4-channel readings plus labels.

    `t_ms` (n) and `counts` (n x 4 raw ADC counts) are read-only int64
    copies of what the caller passed.
    """

    t_ms: np.ndarray
    counts: np.ndarray
    label: int = 0
    mixture: GasMixture | None = None
    sample_rate_hz: float = 10.0

    def __post_init__(self):
        t = _readonly_int64(self.t_ms, "t_ms")
        counts = _readonly_int64(self.counts, "counts")
        object.__setattr__(self, "t_ms", t)
        object.__setattr__(self, "counts", counts)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("session needs a non-empty 1-D t_ms")
        if counts.shape != (t.size, 4):
            raise ValueError(f"counts must have shape ({t.size}, 4), got {counts.shape}")
        if self.label not in (0, 1, 2, 3):
            raise ValueError(f"label must be 0..3, got {self.label}")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be > 0")
        if t[0] < 0:
            raise ValueError("t_ms must be >= 0")
        if np.any(t[1:] <= t[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        if counts.min() < 0 or counts.max() > ADC_MAX:
            raise ValueError(f"raw counts must lie in [0, {ADC_MAX}]")

    def voltages(self) -> np.ndarray:
        """n x 4 matrix of channel voltages via the ADC conversion rule."""
        return self.counts * ADC_VREF / ADC_LEVELS


def impute_missing(values) -> np.ndarray:
    """Fill NaN gaps with the mean of the nearest present neighbours.

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


def _is_decimal(field: str) -> bool:
    """Non-empty ASCII digits only: no sign, underscore or non-ASCII digit."""
    return field.isascii() and field.isdigit()


def _parse_line(line: str) -> tuple[int, list[float]] | None:
    """One data line -> (t_ms, 4 raw values, NaN for blank) or None if malformed."""
    fields = [f.strip() for f in line.split(",")]
    if len(fields) != 5 or not _is_decimal(fields[0]):
        return None
    raws: list[float] = []
    for f in fields[1:]:
        if f == "":
            raws.append(math.nan)
            continue
        if not _is_decimal(f):
            return None
        r = int(f)
        if r > ADC_MAX:
            return None
        raws.append(float(r))
    return int(fields[0]), raws


def parse_stream(lines, label: int = 0, mixture: GasMixture | None = None,
                 sample_rate_hz: float = 10.0) -> Session:
    """Parse an iterable of frame lines into a Session.

    Blank lines and the canonical header are skipped.  Malformed lines
    are counted; if they exceed 10% of the data lines, or timestamps are
    not strictly increasing, the whole stream is rejected.
    """
    rows: list[tuple[int, list[float]]] = []
    n_malformed = 0
    n_lines = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#") or line == SESSION_HEADER:
            continue
        n_lines += 1
        parsed = _parse_line(line)
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
            raw[:, ch] = np.clip(np.round(impute_missing(col)), 0, ADC_MAX)

    # every value is a non-negative whole number, so truncation is exact
    return Session(t_ms=t, counts=raw.astype(np.int64), label=label,
                   mixture=mixture, sample_rate_hz=sample_rate_hz)


def frame_lines(t_ms, counts) -> list[str]:
    """Wire-format lines `t_ms,raw1,raw2,raw3,raw4` for the given arrays."""
    rows = np.column_stack((t_ms, counts)).tolist()
    return [f"{t},{a},{b},{c},{d}" for t, a, b, c, d in rows]


def meta_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".meta")


def write_meta(record, csv_path) -> None:
    """Write the `<name>.meta` sidecar of a session or processed CSV.

    `record` is anything with `label`, `mixture` and `sample_rate_hz`.
    """
    mix = record.mixture or GasMixture()
    meta_path(csv_path).write_text("\n".join([
        f"label={record.label}",
        f"acetone_ppm={mix.acetone_ppm!r}",
        f"ethanol_ppm={mix.ethanol_ppm!r}",
        f"methanol_ppm={mix.methanol_ppm!r}",
        f"sample_rate_hz={record.sample_rate_hz!r}",
    ]) + "\n")


def read_meta(csv_path) -> dict:
    """`label`, `mixture` and `sample_rate_hz` from the CSV's sidecar.

    Without a sidecar the defaults apply: label 0, no mixture, 10 Hz.
    """
    mp = meta_path(csv_path)
    if not mp.exists():
        return {"label": 0, "mixture": None, "sample_rate_hz": 10.0}
    entries: dict[str, str] = {}
    for line in mp.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return {
        "label": int(entries.get("label", "0")),
        "mixture": GasMixture(*(float(entries.get(f"{gas}_ppm", "0"))
                                for gas in GASES)),
        "sample_rate_hz": float(entries.get("sample_rate_hz", "10.0")),
    }


def write_session(session: Session, csv_path) -> None:
    """Write the session CSV plus its `<name>.meta` sidecar."""
    body = "\n".join([SESSION_HEADER, *frame_lines(session.t_ms, session.counts)]) + "\n"
    Path(csv_path).write_text(body)
    write_meta(session, csv_path)


def read_session(csv_path) -> Session:
    """Read a session CSV; the .meta sidecar is applied when present."""
    meta = read_meta(csv_path)
    with Path(csv_path).open() as fh:
        return parse_stream(fh, **meta)
