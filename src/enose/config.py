"""Flat `key = value` config files (one parameter per line, # comments)."""

from __future__ import annotations

from pathlib import Path


def parse_config_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        entries[key] = value.strip()
    return entries


def read_config(path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())


# keys understood by the simulator / bench config file
FLOAT_KEYS = ("noise_sigma", "drift_rate", "tau_rise", "tau_fall",
              "sample_rate_hz", "svm_c", "variance_threshold", "mlp_lr")
INT_KEYS = ("window_m", "baseline_degree", "mlp_epochs")


def typed_config(entries: dict[str, str]) -> dict[str, object]:
    """Parse known keys to numbers; unknown keys raise.

    `svm_gamma = auto` selects the data-driven heuristic (None), as the
    `--gamma auto` flag and the config echo spell it.
    """
    out: dict[str, object] = {}
    for key, value in entries.items():
        if key in FLOAT_KEYS:
            out[key] = float(value)
        elif key in INT_KEYS:
            out[key] = int(value)
        elif key == "svm_gamma":
            out[key] = None if value == "auto" else float(value)
        elif key == "features":
            out[key] = value
        elif key == "mlp_hidden":
            out[key] = tuple(int(v) for v in value.split())
        else:
            raise ValueError(f"unknown config key {key!r}")
    return out
