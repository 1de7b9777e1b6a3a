"""Flat `key = value` config files (one parameter per line, # comments).

`bench.PipelineConfig.updated` knows the keys and parses the values."""

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

