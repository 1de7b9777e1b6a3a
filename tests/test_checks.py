import pytest
from hypothesis import given
from hypothesis import strategies as st

from enose.checks import ASCII_SPACE, text_lines


@pytest.mark.parametrize("char, kind", [
    ("\xa0", "non-ASCII"), ("\u0663", "non-ASCII"), ("\u3000", "non-ASCII"),
    ("\u2028", "non-ASCII"), ("\ud800", "non-ASCII"),
    ("\v", "line-break"), ("\f", "line-break"), ("\x1c", "line-break"),
    ("\x1d", "line-break"), ("\x1e", "line-break"),
])
def test_stray_character_outside_a_comment_names_its_line(char, kind):
    lines = text_lines(f"a = 1\n\nb = {char}2 # {char}\n")
    assert next(lines) == (1, "a = 1")   # the lines before it are read first
    with pytest.raises(ValueError) as info:
        next(lines)
    assert str(info.value) == f"line 3: {kind} character {char!r}"


# Text that str.splitlines ends only at \n, \r\n and \r, so the old
# per-reader splitting and text_lines must agree on it.
clean_text = st.text(alphabet="ab=# ,.\t\n\r\x1f\x00")


@given(clean_text)
def test_agrees_with_splitlines_on_clean_text(text):
    expected = [(lineno, body) for lineno, line in enumerate(text.splitlines(), start=1)
                if (body := line.partition("#")[0].strip(ASCII_SPACE))]
    assert list(text_lines(text)) == expected
