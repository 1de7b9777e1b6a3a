"""Flat `key = value` files (one setting per line, # comments): run
configs and session `.meta` sidecars.  `bench.PipelineConfig.updated` and
`acquisition.read_meta` know their keys and parse the values."""

from __future__ import annotations

from pathlib import Path


def parse_config_text(text: str) -> dict[str, str]:
    """Key -> value text; a line without `=`, an empty key or a key given
    twice raises ValueError naming the line."""
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
        if key in entries:
            raise ValueError(f"line {lineno}: key {key!r} given twice")
        entries[key] = value.strip()
    return entries


def read_config(path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())
