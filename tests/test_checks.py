import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enose.checks import (ASCII_SPACE, decode_text, read_text, split_lines, text_lines,
                          write_lines)


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


@given(st.text(alphabet="ab\n\r\x1c\x85 "))
def test_split_lines_agrees_with_universal_newlines(text):
    # the rule a text-mode file read had, by which frame files were split
    expected = [line.removesuffix("\n") for line in io.StringIO(text, newline=None)]
    assert split_lines(text) == expected


@pytest.mark.parametrize("data, text", [
    (b"a = 1\n", "a = 1\n"),
    ("µ 　".encode(), "µ 　"),
    # each byte that is not UTF-8 is one character, even inside a sequence
    (b"\xff1\xb5\xe2\x80", "\udcff1\udcb5\udce2\udc80"),
])
def test_decode_text(data, text):
    assert decode_text(data) == text


def test_write_lines_ends_every_line_in_newline(tmp_path):
    path = tmp_path / "out.csv"
    write_lines(path, ["a,b", "", "1,2"])
    assert path.read_bytes() == b"a,b\n\n1,2\n"
    assert split_lines(read_text(path)) == ["a,b", "", "1,2"]
    write_lines(path, [])
    assert path.read_bytes() == b""
