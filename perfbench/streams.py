"""Seeded dirty frame streams for the `ingest_files` workload, and their oracle.

`make_streams` simulates `binary_methanol` sessions with `enose simulate`
in a child process, then rewrites each session as a raw frame file in the
wire format (`t_ms,raw1,raw2,raw3,raw4`).  About `BLANK_P` of the lines
lose one raw field (a dropped sample the parser imputes) and about
`MALFORMED_P` are replaced by a malformed line, which the parser skips.
Every stream stays below the parser's 10% malformed-line limit.

The oracle recomputes what `enose ingest` and `enose preprocess` must
write, from the documented rules and independently of the enose code:
imputation takes the rounded mean of the nearest present neighbours,
preprocessing a centred moving average with shrinking edge windows minus a
least-squares polynomial fitted to the leading and trailing 10% of samples.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TABLE = "binary-methanol"
PER_ROW = 16            # 16 rows x 16 = 256 streams, so p95 has 12 beyond it
BLANK_P = 0.03
MALFORMED_P = 0.02
MALFORMED_LIMIT = 0.10  # the parser rejects a stream above this share
STREAM_SALT = 0x1F11E5

ADC_VREF, ADC_LEVELS, ADC_MAX = 3.3, 4096, 4095
WINDOW_M, BASELINE_DEGREE, EDGE_FRACTION = 5, 2, 0.10


@dataclass(frozen=True)
class Stream:
    name: str
    frames_path: Path
    label: int
    acetone_ppm: float
    methanol_ppm: float
    t_ms: np.ndarray        # timestamps of the well-formed lines
    counts: np.ndarray      # n x 4 counts the ingest must produce
    blank_fields: int
    malformed_lines: int
    lines: int

    def ingest_argv(self, session_csv) -> list[str]:
        return ["ingest", "--in", str(self.frames_path), "--out", str(session_csv),
                "--label", str(self.label), "--acetone", repr(self.acetone_ppm),
                "--methanol", repr(self.methanol_ppm)]


def _malformed(row, form: int) -> str:
    t, r = row[0], row[1:]
    if form == 0:                                   # truncated transmission
        return f"{t},{r[0]},{r[1]},{r[2]}"
    if form == 1:                                   # non-numeric field
        return f"{t},{r[0]},n/a,{r[2]},{r[3]}"
    if form == 2:                                   # count above 12 bits
        return f"{t},{r[0] + ADC_LEVELS},{r[1]},{r[2]},{r[3]}"
    return f"{t},{r[0]},{r[1]},{r[2]},{r[3]},0"     # extra field


def impute_expected(raw: np.ndarray) -> np.ndarray:
    """Counts after imputation: NaN -> rounded mean of nearest present values."""
    out = raw.copy()
    n = raw.shape[0]
    idx = np.arange(n)
    for ch in range(raw.shape[1]):
        col = raw[:, ch]
        present = ~np.isnan(col)
        if present.all():
            continue
        left = np.maximum.accumulate(np.where(present, idx, -1))
        right = np.minimum.accumulate(np.where(present, idx, n)[::-1])[::-1]
        lv = col[np.clip(left, 0, n - 1)]
        rv = col[np.clip(right, 0, n - 1)]
        fill = np.where(left < 0, rv, np.where(right >= n, lv, 0.5 * (lv + rv)))
        out[~present, ch] = np.clip(np.round(fill[~present]), 0, ADC_MAX)
    return out.astype(np.int64)


def make_streams(src: Path, seed: int, workdir: Path) -> list[Stream]:
    sim = workdir / "sim"
    frames_dir = workdir / "frames"
    frames_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-m", "enose", "simulate", "--table", TABLE,
                    "--seed", str(seed), "--per-row", str(PER_ROW), "--out", str(sim)],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    rng = np.random.default_rng(np.random.SeedSequence((seed, STREAM_SALT)))
    streams = []
    for csv in sorted(sim.glob("session_*.csv")):
        meta = dict(line.split("=", 1) for line in
                    csv.with_suffix(".meta").read_text().split())
        rows = np.array([[int(v) for v in line.split(",")]
                         for line in csv.read_text().split()[1:]], dtype=np.int64)
        n = rows.shape[0]
        u = rng.random(n)
        blank_ch = rng.integers(0, 4, n)
        form = rng.integers(0, 4, n)
        malformed = u < MALFORMED_P
        blank = (u >= MALFORMED_P) & (u < MALFORMED_P + BLANK_P)
        if malformed.sum() >= MALFORMED_LIMIT * n:
            raise RuntimeError(f"{csv.name}: generator exceeded the malformed limit")
        lines = []
        for i, row in enumerate(rows.tolist()):
            if malformed[i]:
                lines.append(_malformed(row, int(form[i])))
                continue
            fields = [str(v) for v in row]
            if blank[i]:
                fields[1 + int(blank_ch[i])] = ""
            lines.append(",".join(fields))
        name = csv.stem.replace("session_", "stream_")
        path = frames_dir / f"{name}.txt"
        path.write_text("\n".join(lines) + "\n")

        keep = ~malformed
        raw = rows[keep, 1:].astype(float)
        kept_blank = blank[keep]
        raw[np.flatnonzero(kept_blank), blank_ch[keep][kept_blank]] = np.nan
        streams.append(Stream(
            name=name, frames_path=path, label=int(meta["label"]),
            acetone_ppm=float(meta["acetone_ppm"]),
            methanol_ppm=float(meta["methanol_ppm"]),
            t_ms=rows[keep, 0], counts=impute_expected(raw),
            blank_fields=int(blank.sum()), malformed_lines=int(malformed.sum()),
            lines=n))
        csv.unlink()
        csv.with_suffix(".meta").unlink()
    sim.rmdir()
    return streams


def inputs_digest(streams: list[Stream]) -> str:
    h = hashlib.sha256()
    for s in streams:
        h.update(s.name.encode())
        h.update(s.frames_path.read_bytes())
    return h.hexdigest()


def processed_expected(t_ms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Processed voltages per the documented preprocessing rule."""
    volts = counts * ADC_VREF / ADC_LEVELS
    n = volts.shape[0]
    half = WINDOW_M // 2
    idx = np.arange(n)
    lo, hi = np.maximum(0, idx - half), np.minimum(n, idx + half + 1)
    csum = np.vstack([np.zeros(4), np.cumsum(volts, axis=0)])
    smooth = (csum[hi] - csum[lo]) / (hi - lo)[:, None]
    k = max(1, int(n * EDGE_FRACTION))
    anchors = np.concatenate([np.arange(k), np.arange(n - k, n)])
    t = t_ms / 1000.0
    s = (t - t.min()) / ((t.max() - t.min()) or 1.0)
    basis = np.vander(s, BASELINE_DEGREE + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(basis[anchors], smooth[anchors], rcond=None)
    return smooth - basis @ coef


def read_table(path: Path) -> np.ndarray:
    """Numeric rows of a session or processed CSV (comments and header skipped)."""
    rows = [line for line in path.read_text().split("\n")
            if line and not line.startswith("#") and not line.startswith("t_ms")]
    return np.array([line.split(",") for line in rows], dtype=float)
