"""Flat `key = value` files (one setting per line, # comments): run
configs and session `.meta` sidecars.  `bench.PipelineConfig.updated` and
`acquisition.read_meta` know their keys and parse the values."""

from __future__ import annotations

from pathlib import Path

from .checks import has_non_ascii_space


def parse_config_text(text: str) -> dict[str, str]:
    """Key -> value text; a line without `=`, an empty key, a key given
    twice or non-ASCII whitespace outside a `#` comment raises ValueError
    naming the line.

    Only ASCII whitespace surrounds a key or a value, as in frame streams;
    `str.strip` would also drop NBSP or an ideographic space, so those are
    refused, as is a non-ASCII line break.  Other non-ASCII characters
    fail where the key or its value is read.
    """
    entries: dict[str, str] = {}
    # each line with its end too, which may be a non-ASCII line break
    lines = zip(text.splitlines(), text.splitlines(keepends=True))
    for lineno, (raw, ended) in enumerate(lines, start=1):
        line = ended.split("#", 1)[0]
        if has_non_ascii_space(line):
            raise ValueError(f"line {lineno}: non-ASCII whitespace in {line!r}")
        line = line.strip()
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
