r"""Ingestion of raw frame streams and the canonical session CSV format.

Wire format: ASCII lines, each ended by "\n", "\r\n" or "\r", one frame
per line,

    t_ms,raw1,raw2,raw3,raw4

with fields of ASCII decimal digits (surrounding ASCII whitespace allowed)
and raw counts in the 12-bit range.  A blank raw field marks a dropped
sample (imputed from its neighbours); anything else that does not fit
the schema, any non-ASCII character included, is malformed.  A stream
is decoded by `checks.decode_text`, so a byte that is not UTF-8 is one
such character, from a file or from stdin alike.  Session files use the
same lines under a fixed header, with metadata in a `<name>.meta` sidecar
of flat `key=value` lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checks import (ASCII_SPACE, check_positive, parse_config_text, parse_float, parse_int,
                     read_text, split_lines, write_lines)
from .sensors import (ADC_MAX, GASES, LABELS, SAMPLE_RATE_HZ, VOLTS_PER_COUNT,
                      GasMixture)

SESSION_HEADER = "t_ms,raw1,raw2,raw3,raw4"
MALFORMED_FRACTION_LIMIT = 0.10


class StreamError(ValueError):
    """Raised when a frame stream cannot be ingested as a session."""

    def __init__(self, message: str, n_malformed: int = 0, n_lines: int = 0):
        super().__init__(message)
        self.n_malformed = n_malformed
        self.n_lines = n_lines


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
    sample_rate_hz: float = SAMPLE_RATE_HZ

    def __post_init__(self):
        t = _readonly_int64(self.t_ms, "t_ms")
        counts = _readonly_int64(self.counts, "counts")
        object.__setattr__(self, "t_ms", t)
        object.__setattr__(self, "counts", counts)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("session needs a non-empty 1-D t_ms")
        if counts.shape != (t.size, 4):
            raise ValueError(f"counts must have shape ({t.size}, 4), got {counts.shape}")
        if self.label not in LABELS:
            raise ValueError(f"label must be 0..3, got {self.label}")
        check_positive("sample_rate_hz", self.sample_rate_hz)
        if t[0] < 0:
            raise ValueError("t_ms must be >= 0")
        if np.any(t[1:] <= t[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        if counts.min() < 0 or counts.max() > ADC_MAX:
            raise ValueError(f"raw counts must lie in [0, {ADC_MAX}]")

    def voltages(self) -> np.ndarray:
        """n x 4 matrix of channel voltages via the ADC conversion rule."""
        return self.counts * VOLTS_PER_COUNT


def impute_missing(values) -> np.ndarray:
    """Fill NaN gaps along axis 0 with the mean of the nearest present neighbours.

    `values` is one series (1-D) or one per column (n x k).  Interior gap
    runs take the mean of the closest present value on each side; runs
    touching a boundary copy the single available neighbour.  Present
    values are never altered.
    """
    out = np.array(values, dtype=float)
    cols = out[:, None] if out.ndim == 1 else out    # a view, so it fills `out`
    gap = np.isnan(cols)
    if gap.all(axis=0).any():
        raise ValueError("cannot impute an all-missing series")
    n = len(cols)
    at = np.arange(n)[:, None]
    # rows of the nearest present values above and below each gap (-1 or n
    # when there is none); a run at a boundary takes its one neighbour twice
    above = np.maximum.accumulate(np.where(gap, -1, at), axis=0)[gap]
    below = np.minimum.accumulate(np.where(gap, n, at)[::-1], axis=0)[::-1][gap]
    lo, hi = np.where(above < 0, below, above), np.where(below == n, above, below)
    ch = np.nonzero(gap)[1]
    left, right = cols[lo, ch], cols[hi, ch]
    cols[gap] = np.where(lo == hi, left, 0.5 * (left + right))
    return out


_LINE_END = 0x80    # marks the end of a line; no character maps to it

# 10**p for p = 0..19.  A field's value is summed over its lowest 19
# places, which is exact in uint64; a non-zero digit above them makes it
# too big for int64 and for a raw count.
_PLACES = 10 ** np.arange(20, dtype=np.uint64)
_VALUE_PLACES = 19
_TOO_BIG = np.iinfo(np.uint64).max
_INT64_MAX = np.uint64(np.iinfo(np.int64).max)


def _scan_frames(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize stripped data lines; (value, n_digits) of the valid ones.

    A line is valid when it has exactly five comma-separated fields, each
    one run of ASCII digits or none, with ASCII whitespace around it, a
    non-blank `t_ms` and raw counts of at most 4095.  Both arrays are
    5 x n_valid, `t_ms` first: `value` is uint64 and lies above the int64
    range where a `t_ms` does not fit there, and `n_digits` is 0 for a
    blank field.
    """
    # every line ends in a _LINE_END byte, one more leads the stream, and a
    # "0" after the last is the digit read for a place that a field lacks;
    # each non-ASCII character becomes one "?" byte, which fails its line
    lengths = np.fromiter(map(len, lines), dtype=np.intp, count=len(lines))
    text = "\n".join(["", *lines, "0"]).encode("ascii", "replace")
    data = np.frombuffer(text, dtype=np.uint8).copy()
    data[np.concatenate(([0], np.cumsum(lengths + 1)))] = _LINE_END

    space = ((data - 9) < 5) | ((data - 28) < 5)    # ASCII_SPACE: \t-\r, \x1c-" "
    squeezed = space.any()
    if squeezed:
        kept = np.flatnonzero(~space)
        data = data[kept]
    digit = (data - ord("0")) < 10
    line_end = data == _LINE_END
    delim = line_end | (data == ord(","))
    # a line fails on any other byte, and on whitespace between two digits
    flaws = np.flatnonzero(~(digit | delim))
    if squeezed:
        split = np.flatnonzero(digit[1:] & digit[:-1] & (np.diff(kept) > 1))
        flaws = np.concatenate((flaws, split))
    bad = np.zeros(len(lines), dtype=bool)
    if flaws.size:
        bad[np.searchsorted(np.flatnonzero(line_end), flaws, side="right") - 1] = True

    # field k lies between delimiters at[k] and at[k + 1]; line i holds
    # fields bounds[i] to bounds[i + 1] - 1
    at = np.flatnonzero(delim)
    bounds = np.flatnonzero(line_end[at])
    rows = np.flatnonzero((np.diff(bounds) == 5) & ~bad)
    if not rows.size:
        return np.empty((5, 0), np.uint64), np.empty((5, 0), np.intp)
    field = bounds[rows] + np.arange(5)[:, None]      # 5 x m, t_ms first
    stop = at[field + 1]
    n_digits = stop - at[field] - 1

    value = np.zeros(n_digits.shape, dtype=np.uint64)
    for p in range(min(int(n_digits.max()), _VALUE_PLACES)):
        digit = data[np.where(n_digits > p, stop - 1 - p, data.size - 1)] - ord("0")
        value += digit * _PLACES[p]
    for i, j in zip(*np.nonzero(n_digits > _VALUE_PLACES)):
        if (data[stop[i, j] - n_digits[i, j]:stop[i, j] - _VALUE_PLACES] != ord("0")).any():
            value[i, j] = _TOO_BIG

    valid = (n_digits[0] > 0) & (value[1:] <= ADC_MAX).all(axis=0)
    return value[:, valid], n_digits[:, valid]


def parse_stream(lines, label: int = 0, mixture: GasMixture | None = None,
                 sample_rate_hz: float = SAMPLE_RATE_HZ) -> Session:
    """Parse an iterable of frame lines into a Session.

    Each line is stripped of ASCII whitespace; blank lines, `#` comments
    and the canonical header are skipped, and every other line is a data
    line.  The data lines are tokenized together as one byte array.
    Malformed lines are counted; if they exceed 10% of the data lines, or
    timestamps are not strictly increasing, the whole stream is rejected.
    """
    kept = [s for line in lines if (s := line.strip(ASCII_SPACE))
            and s[0] != "#" and s != SESSION_HEADER]
    n_lines = len(kept)
    if n_lines == 0:
        raise StreamError("stream contains no frames", 0, 0)
    # t, counts and blank come from the tokenizer's field matrices, not as
    # copies it returns: with such copies, glibc kept ~8 KB of heap holes
    # per stream beside the Session arrays, +4 MB peak RSS over 600 streams
    value, n_digits = _scan_frames(kept)
    t, counts, blank = value[0], value[1:].T.astype(np.int64), n_digits[1:].T == 0
    n_malformed = n_lines - t.size
    if n_malformed / n_lines > MALFORMED_FRACTION_LIMIT:
        raise StreamError(
            f"stream rejected: {n_malformed} of {n_lines} lines malformed "
            f"(limit {MALFORMED_FRACTION_LIMIT:.0%})",
            n_malformed, n_lines)
    if not t.size:
        raise StreamError("stream contains no frames", n_malformed, n_lines)

    if t.max() > _INT64_MAX:
        raise StreamError("stream rejected: timestamp beyond the int64 range",
                          n_malformed, n_lines)
    t = t.astype(np.int64)
    if np.any(t[1:] <= t[:-1]):
        raise StreamError("stream rejected: timestamps not strictly increasing",
                          n_malformed, n_lines)

    if blank.any():
        if (empty := np.flatnonzero(blank.all(axis=0))).size:
            raise StreamError(f"channel {empty[0] + 1} has no present values",
                              n_malformed, n_lines)
        raw = impute_missing(np.where(blank, np.nan, counts))
        # every value is a non-negative whole number, so truncation is exact
        counts = np.clip(np.round(raw), 0, ADC_MAX).astype(np.int64)
    return Session(t_ms=t, counts=counts, label=label,
                   mixture=mixture, sample_rate_hz=sample_rate_hz)


def frame_lines(t_ms, counts) -> bytes:
    r"""The ASCII bytes of the wire-format lines `t_ms,raw1,raw2,raw3,raw4`
    for the given arrays, each ended by "\n".

    The values must be non-negative integers.  Their digits go right-aligned
    into fixed-width slots of one byte buffer, from which the unused
    leading slots are then dropped.
    """
    values = np.column_stack((t_ms, counts))
    if not values.size:
        return b""
    if not np.issubdtype(values.dtype, np.integer) or values.min() < 0:
        raise ValueError("frame values must be non-negative integers")
    values = values.astype(np.uint64)
    width = len(str(values.max()))
    chars = np.empty((*values.shape, width + 1), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    chars[:, :-1, width] = ord(",")
    chars[:, -1, width] = ord("\n")
    keep[..., width] = True
    rest = values.copy()
    for p in range(width):
        rest, digit = np.divmod(rest, 10)
        chars[..., width - 1 - p] = digit + ord("0")
        keep[..., width - 1 - p] = values >= _PLACES[p] if p else True
    return chars[keep].tobytes()


# The `<name>.meta` sidecar's keys, in the order `write_meta` writes them.
META_KEYS = ("label", *(f"{gas}_ppm" for gas in GASES), "sample_rate_hz")


def meta_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".meta")


def write_meta(session: Session, csv_path) -> None:
    """Write the `<name>.meta` sidecar of a session's CSV or processed CSV."""
    mix = session.mixture or GasMixture()
    values = [session.label, *(repr(c) for c in mix.as_tuple()), repr(session.sample_rate_hz)]
    write_lines(meta_path(csv_path), [f"{key}={value}" for key, value in zip(META_KEYS, values)])


def read_meta(csv_path) -> dict:
    """`label`, `mixture` and `sample_rate_hz` from the CSV's sidecar.

    Without a sidecar the defaults apply: label 0, no mixture and
    SAMPLE_RATE_HZ.  A sidecar is read with the config-file syntax and must
    hold each of the META_KEYS once and nothing else.
    """
    mp = meta_path(csv_path)
    if not mp.exists():
        return {"label": 0, "mixture": None, "sample_rate_hz": SAMPLE_RATE_HZ}
    try:
        entries = parse_config_text(read_text(mp))
        for key in entries:
            if key not in META_KEYS:
                raise ValueError(f"unknown key {key!r}")
        for key in META_KEYS:
            if key not in entries:
                raise ValueError(f"missing key {key!r}")
        return {"label": parse_int(entries["label"]),
                "mixture": GasMixture(*(parse_float(entries[f"{gas}_ppm"]) for gas in GASES)),
                "sample_rate_hz": parse_float(entries["sample_rate_hz"])}
    except ValueError as exc:
        raise ValueError(f"{mp}: {exc}") from exc


def write_session(session: Session, csv_path) -> None:
    """Write the session CSV plus its `<name>.meta` sidecar."""
    write_lines(csv_path, [SESSION_HEADER], frame_lines(session.t_ms, session.counts))
    write_meta(session, csv_path)


def read_session(csv_path) -> Session:
    """Read a session CSV; the .meta sidecar is applied when present."""
    meta = read_meta(csv_path)
    return parse_stream(split_lines(read_text(csv_path)), **meta)
