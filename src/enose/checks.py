"""Range, size and spelling checks shared by the settings and fitted-model
types and the files they are read from."""

import math


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
    """Whether `text` may spell a float: ASCII, without the "_" float() takes."""
    return text.isascii() and "_" not in text


def has_non_ascii_space(text: str) -> bool:
    """Whether `text` holds whitespace outside ASCII (NBSP, an ideographic
    space, a Unicode line break), which `str.strip` and `str.split` would
    take for the ASCII whitespace the program writes."""
    return not text.isascii() and any(c.isspace() and not c.isascii() for c in text)


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
