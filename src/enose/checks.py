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
