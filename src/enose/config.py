"""Flat `key = value` files (one setting per line, # comments): run
configs and session `.meta` sidecars, read by the `checks` byte and line
rule, so a comment may hold any byte.  `bench.PipelineConfig.updated`
(whose fields are the config keys) and `acquisition.read_meta` know
their keys and parse the values."""

from __future__ import annotations

from .checks import ASCII_SPACE, read_text, text_lines


def parse_config_text(text: str) -> dict[str, str]:
    """Key -> value text of the lines `checks.text_lines` yields; a line
    without `=`, an empty key or a key given twice raises ValueError naming
    the line, as text_lines does for a character it refuses."""
    entries: dict[str, str] = {}
    for lineno, line in text_lines(text):
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.rstrip(ASCII_SPACE)
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in entries:
            raise ValueError(f"line {lineno}: key {key!r} given twice")
        entries[key] = value.lstrip(ASCII_SPACE)
    return entries


def read_config(path) -> dict[str, str]:
    return parse_config_text(read_text(path))
