r"""Range, size and spelling checks shared by the settings and fitted-model
types, and the byte and line rule of every file the program reads or
writes: inputs are decoded as UTF-8 whatever the locale, lines end only at
"\n", "\r\n" or "\r", and artifacts are written as ASCII lines ended by
"\n".  `parse_int` and `parse_float` read every number of a file and of a
command-line flag (they are the argparse types of the numeric flags).
`parse_config_text` reads the flat `key = value` lines of run configs and
session `.meta` sidecars; `bench.PipelineConfig.updated` (whose fields are
the config keys) and `acquisition.read_meta` know their keys and parse
the values."""

import math
from pathlib import Path

ASCII_SPACE = "\t\n\v\f\r\x1c\x1d\x1e\x1f "   # every ASCII character str.isspace takes


def check_positive(name: str, value: float) -> None:
    """Raise unless `value` is > 0 (which a nan is not) and finite."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


def check_sizes(sizes: dict[str, int]) -> None:
    """Raise, naming every size, unless all of `sizes` are equal."""
    if len(set(sizes.values())) > 1:
        raise ValueError("sizes disagree: " + ", ".join(f"{k} {v}" for k, v in sizes.items()))


def is_integer_text(text: str) -> bool:
    """Whether `text` spells an integer as the program writes one: an
    optional "-", then ASCII digits.  `int()` also takes "+5", "1_6",
    non-ASCII digits and surrounding whitespace."""
    digits = text.removeprefix("-")
    return digits.isascii() and digits.isdigit()


def is_float_text(text: str) -> bool:
    """Whether `text` may spell a float: ASCII, without the "_" float() takes
    or the surrounding whitespace it strips."""
    return text.isascii() and "_" not in text and text == text.strip(ASCII_SPACE)


def text_lines(text: str):
    r"""Yield (line number, content) for each line of `text` that holds more
    than a `#` comment.  A line ends only at "\n", "\r\n" or "\r"; its
    content is the part before its first "#", stripped of ASCII_SPACE.
    That part must be ASCII without \v, \f or \x1c-\x1e (where
    str.splitlines would also end a line), else ValueError names the line
    once the lines before it have been yielded.
    """
    clean = _is_text(text)   # then no line needs a check of its own
    for lineno, line in enumerate(split_lines(text), start=1):
        line = line.partition("#")[0]
        if not clean and not _is_text(line):
            c = next(c for c in line if not _is_text(c))
            kind = "line-break" if c.isascii() else "non-ASCII"
            raise ValueError(f"line {lineno}: {kind} character {c!r}")
        if line := line.strip(ASCII_SPACE):
            yield lineno, line


def parse_config_text(text: str) -> dict[str, str]:
    """Key -> value text of the lines `text_lines` yields; a line without
    `=`, an empty key or a key given twice raises ValueError naming the
    line, as text_lines does for a character it refuses."""
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


def decode_text(data: bytes) -> str:
    """`data` decoded as UTF-8.  A byte that is not UTF-8 becomes one
    non-ASCII character (a lone surrogate), so a reader refuses it outside
    a `#` comment and a frame stream counts its line as malformed."""
    return data.decode("utf-8", "surrogateescape")


def read_text(path) -> str:
    return decode_text(Path(path).read_bytes())


def split_lines(text: str) -> list[str]:
    r"""The lines of `text`, each ended only by "\n", "\r\n" or "\r"; a
    line break that ends the text opens no empty last line."""
    if "\r" in text:   # else a search for "\r\n" costs about as much as the split
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def write_lines(path, lines, body: bytes = b"") -> None:
    r"""Write `lines` to `path` as ASCII bytes, each ended by "\n", then the
    bytes `body`, which are already ASCII lines in that form."""
    Path(path).write_bytes("\n".join([*lines, ""]).encode("ascii") + body)


def _is_text(s: str) -> bool:
    r"""Whether `s` is ASCII without \v, \f or \x1c-\x1e, in a few C scans."""
    return s.isascii() and not ("\v" in s or "\f" in s or "\x1c" in s
                                or "\x1d" in s or "\x1e" in s)


def parse_int(text: str) -> int:
    """`int(text)` if `is_integer_text(text)`, else int()'s refusal."""
    if not is_integer_text(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """`float(text)` if `is_float_text(text)`, else float()'s refusal."""
    if not is_float_text(text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)
